#ifndef EVA_VISION_MODELS_H_
#define EVA_VISION_MODELS_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "vision/synthetic_video.h"

namespace eva::vision {

/// One detection emitted by an object detector.
struct Detection {
  int obj_id = 0;
  uint8_t label_id = 0;  // into ObjectLabels()
  double area = 0;
  double score = 0;

  const std::string& label() const { return ObjectLabels()[label_id]; }
};

/// A categorical model output: entry `id` of a static vocabulary, so the
/// executor can append it to a lane without copying or hashing the name.
struct Label {
  const std::vector<std::string>* vocab = nullptr;
  uint8_t id = 0;

  const std::string& name() const { return (*vocab)[id]; }
};

/// Simulated object-detection model (YOLO-tiny / FasterRCNN-R50 / -R101).
///
/// Deterministic: whether a ground-truth object is detected is a pure
/// function of (model name, frame, object), so repeated invocations return
/// byte-identical results — a prerequisite for result caching and view
/// reuse to be semantically sound. Higher-accuracy models have higher
/// recall, which reproduces the Fig. 10 effect where reusing a
/// high-accuracy view feeds *more* objects into dependent UDFs.
class DetectorModel {
 public:
  explicit DetectorModel(catalog::UdfDef def);

  const std::string& name() const { return def_.name; }
  double cost_ms() const { return def_.cost_ms; }
  const catalog::UdfDef& def() const { return def_; }

  std::vector<Detection> Detect(const SyntheticVideo& video,
                                int64_t frame_id) const;

 private:
  catalog::UdfDef def_;
  uint64_t name_seed_;
};

/// Simulated attribute classifier (CarType / ColorDet): maps a detected
/// object to a categorical label; correct with probability
/// `classifier_accuracy`, otherwise a deterministic wrong label.
///
/// Also implements *monolithic* UDFs (§3.3): a target of the form
/// "is:<Color>:<Type>" yields a specialized boolean-style classifier
/// ("true"/"false") like the paper's red-SUV detector. EVA reuses its
/// results only when the identical monolithic UDF recurs, whereas the
/// modular CarType/ColorDet results recombine across any attribute
/// constants — the trade-off §3.3 describes.
class ClassifierModel {
 public:
  explicit ClassifierModel(catalog::UdfDef def);

  const std::string& name() const { return def_.name; }
  double cost_ms() const { return def_.cost_ms; }
  const catalog::UdfDef& def() const { return def_; }

  /// An entry of the target vocabulary; "unknown" for an object the
  /// frame does not hold, "true"/"false" for a monolithic target.
  Label Classify(const SyntheticVideo& video, int64_t frame_id,
                 int obj_id) const;

 private:
  catalog::UdfDef def_;
  uint64_t name_seed_;
  const std::vector<std::string>* vocabulary_;
  bool target_is_color_;
  // Monolithic "is:<Color>:<Type>" target, as ids into VehicleColors() /
  // VehicleTypes(); -1 for a name neither vocabulary holds (never true).
  bool monolithic_ = false;
  int mono_color_ = -1;
  int mono_type_ = -1;
};

/// Lightweight specialized filter (§5.6): a cheap frame-level binary
/// decision ("does this frame contain any vehicle?") with small error
/// rates, standing in for the paper's two-conv-layer DNN.
class FilterModel {
 public:
  explicit FilterModel(catalog::UdfDef def);

  const std::string& name() const { return def_.name; }
  double cost_ms() const { return def_.cost_ms; }

  bool Pass(const SyntheticVideo& video, int64_t frame_id) const;

 private:
  catalog::UdfDef def_;
  uint64_t name_seed_;
};

}  // namespace eva::vision

#endif  // EVA_VISION_MODELS_H_
