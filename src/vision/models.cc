#include "vision/models.h"

#include "common/rng.h"
#include "common/string_util.h"
#include "common/value.h"

namespace eva::vision {

namespace {

uint64_t HashName(const std::string& name) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Stable per-(model, frame, object) random stream.
Rng ObjectRng(uint64_t name_seed, int64_t frame_id, int obj_id) {
  uint64_t s = Rng::MixSeed(name_seed, static_cast<uint64_t>(frame_id));
  s = Rng::MixSeed(s, static_cast<uint64_t>(obj_id) + 0x51ed);
  return Rng(s);
}

// Index of the entry of `vocab` equal to `name` ignoring case, or -1.
// Property values arrive case-folded from the DDL layer.
int FindFolded(const std::vector<std::string>& vocab,
               const std::string& name) {
  for (size_t i = 0; i < vocab.size(); ++i) {
    if (ToLower(vocab[i]) == ToLower(name)) return static_cast<int>(i);
  }
  return -1;
}

// Vocabularies of the classifier outputs outside the ground truth's.
const std::vector<std::string>& UnknownLabels() {
  static const std::vector<std::string>* kUnknown =
      new std::vector<std::string>{"unknown"};
  return *kUnknown;
}

const std::vector<std::string>& BoolLabels() {
  static const std::vector<std::string>* kBool =
      new std::vector<std::string>{"true", "false"};
  return *kBool;
}

}  // namespace

DetectorModel::DetectorModel(catalog::UdfDef def)
    : def_(std::move(def)), name_seed_(HashName(def_.name)) {}

std::vector<Detection> DetectorModel::Detect(const SyntheticVideo& video,
                                             int64_t frame_id) const {
  std::vector<Detection> out;
  const auto& objects = video.FrameObjects(frame_id);
  out.reserve(objects.size());
  for (const GtObject& gt : objects) {
    Rng rng = ObjectRng(name_seed_, frame_id, gt.obj_id);
    double recall = gt.area >= 0.2 ? def_.recall : def_.recall_small;
    if (!rng.NextBool(recall)) continue;
    Detection d;
    d.obj_id = gt.obj_id;
    d.label_id = gt.label_id;
    d.area = gt.area;
    // Confidence shrinks for low-accuracy models.
    d.score = gt.score * (0.6 + 0.4 * def_.recall);
    out.push_back(d);
  }
  return out;
}

ClassifierModel::ClassifierModel(catalog::UdfDef def)
    : def_(std::move(def)),
      name_seed_(HashName(def_.name)),
      target_is_color_(def_.target_attribute == "color") {
  vocabulary_ = target_is_color_ ? &VehicleColors() : &VehicleTypes();
  // Monolithic UDF target "is:<Color>:<Type>" (see header).
  const std::string& t = def_.target_attribute;
  if (t.rfind("is:", 0) == 0) {
    size_t sep = t.find(':', 3);
    if (sep != std::string::npos) {
      monolithic_ = true;
      mono_color_ = FindFolded(VehicleColors(), t.substr(3, sep - 3));
      mono_type_ = FindFolded(VehicleTypes(), t.substr(sep + 1));
    }
  }
}

Label ClassifierModel::Classify(const SyntheticVideo& video, int64_t frame_id,
                                int obj_id) const {
  // Object ids are positions within the frame.
  const auto& objects = video.FrameObjects(frame_id);
  if (obj_id < 0 || static_cast<size_t>(obj_id) >= objects.size()) {
    return {&UnknownLabels(), 0};
  }
  const GtObject& gt = objects[static_cast<size_t>(obj_id)];
  Rng rng = ObjectRng(name_seed_, frame_id, obj_id);
  if (monolithic_) {
    bool truth = gt.color_id == mono_color_ && gt.type_id == mono_type_;
    if (!rng.NextBool(def_.classifier_accuracy)) truth = !truth;
    return {&BoolLabels(), static_cast<uint8_t>(truth ? 0 : 1)};
  }
  const uint8_t truth = target_is_color_ ? gt.color_id : gt.type_id;
  if (rng.NextBool(def_.classifier_accuracy)) return {vocabulary_, truth};
  // Deterministic wrong answer: the next vocabulary entry.
  return {vocabulary_,
          static_cast<uint8_t>((truth + 1) % vocabulary_->size())};
}

FilterModel::FilterModel(catalog::UdfDef def)
    : def_(std::move(def)), name_seed_(HashName(def_.name)) {}

bool FilterModel::Pass(const SyntheticVideo& video, int64_t frame_id) const {
  bool has_vehicle = false;
  for (const GtObject& o : video.FrameObjects(frame_id)) {
    if (o.label_id != kPerson) {
      has_vehicle = true;
      break;
    }
  }
  Rng rng = ObjectRng(name_seed_, frame_id, /*obj_id=*/-7);
  if (has_vehicle) {
    // Conservative filter: very low false-negative rate (missing a frame
    // with a vehicle would change query answers downstream).
    return !rng.NextBool(0.02);
  }
  // High false-positive rate: lightweight two-conv-layer filters are tuned
  // for recall and pass many empty frames through (§5.6).
  return rng.NextBool(0.5);
}

}  // namespace eva::vision
