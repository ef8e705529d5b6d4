#ifndef EVA_VISION_SYNTHETIC_VIDEO_H_
#define EVA_VISION_SYNTHETIC_VIDEO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"

namespace eva::vision {

/// Vocabularies used by the generator and the simulated classifiers.
const std::vector<std::string>& ObjectLabels();    // car, truck, bus, person
const std::vector<std::string>& VehicleTypes();    // Nissan, Toyota, ...
const std::vector<std::string>& VehicleColors();   // Gray, Red, ...

/// Ids into ObjectLabels().
enum ObjectLabelId : uint8_t { kCar = 0, kTruck, kBus, kPerson };

/// Ground-truth object present in a frame. Attributes mirror what the
/// paper's UDFs extract: detection label, vehicle type (CarType), color
/// (ColorDet), relative bounding-box area, and detector confidence. The
/// categorical attributes are ids into the vocabularies above; the models
/// carry them as ids down to the execution lanes.
struct GtObject {
  int obj_id = 0;  // index within the frame
  uint8_t label_id = 0;  // into ObjectLabels()
  uint8_t type_id = 0;   // into VehicleTypes()
  uint8_t color_id = 0;  // into VehicleColors()
  double area = 0;
  double score = 0;

  const std::string& label() const { return ObjectLabels()[label_id]; }
  const std::string& car_type() const { return VehicleTypes()[type_id]; }
  const std::string& color() const { return VehicleColors()[color_id]; }
};

/// Deterministic synthetic video: each frame carries a ground-truth object
/// list generated from (seed, frame_id). This replaces the real UA-DETRAC /
/// JACKSON datasets (DESIGN.md §2): the reuse machinery only observes
/// tuples, predicates, and per-tuple costs, so matching the paper's object
/// densities reproduces its invocation counts.
class SyntheticVideo {
 public:
  explicit SyntheticVideo(catalog::VideoInfo info);

  const catalog::VideoInfo& info() const { return info_; }
  int64_t num_frames() const { return info_.num_frames; }

  /// Ground truth of one frame (empty vector for out-of-range ids).
  const std::vector<GtObject>& FrameObjects(int64_t frame_id) const;

  /// Average number of vehicles (label == "car") per frame; reported by
  /// the Fig. 12 harness.
  double MeanVehiclesPerFrame() const;

 private:
  catalog::VideoInfo info_;
  std::vector<std::vector<GtObject>> frames_;
  std::vector<GtObject> empty_;
};

}  // namespace eva::vision

#endif  // EVA_VISION_SYNTHETIC_VIDEO_H_
