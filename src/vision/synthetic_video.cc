#include "vision/synthetic_video.h"

#include "common/rng.h"

namespace eva::vision {

const std::vector<std::string>& ObjectLabels() {
  static const std::vector<std::string>* kLabels =
      new std::vector<std::string>{"car", "truck", "bus", "person"};
  return *kLabels;
}

const std::vector<std::string>& VehicleTypes() {
  static const std::vector<std::string>* kTypes =
      new std::vector<std::string>{"Nissan", "Toyota", "Ford", "Honda",
                                   "BMW"};
  return *kTypes;
}

const std::vector<std::string>& VehicleColors() {
  static const std::vector<std::string>* kColors =
      new std::vector<std::string>{"Gray", "Red", "Blue", "White", "Black"};
  return *kColors;
}

namespace {

// Label mix: mostly cars (vehicle-heavy traffic scenes, §5.1).
uint8_t PickLabel(Rng& rng) {
  double u = rng.NextDouble();
  if (u < 0.80) return kCar;
  if (u < 0.90) return kTruck;
  if (u < 0.95) return kBus;
  return kPerson;
}

// Skewed categorical pick of an id into `v`: first entries are more
// common, so equality predicates on popular values (Nissan, Gray) have
// realistic selectivity.
uint8_t PickSkewed(Rng& rng, const std::vector<std::string>& v) {
  double u = rng.NextDouble();
  static const double kCdf[] = {0.30, 0.55, 0.75, 0.90, 1.00};
  for (size_t i = 0; i < v.size(); ++i) {
    if (u <= kCdf[i]) return static_cast<uint8_t>(i);
  }
  return static_cast<uint8_t>(v.size() - 1);
}

}  // namespace

SyntheticVideo::SyntheticVideo(catalog::VideoInfo info)
    : info_(std::move(info)) {
  frames_.resize(static_cast<size_t>(info_.num_frames));
  for (int64_t f = 0; f < info_.num_frames; ++f) {
    Rng rng(Rng::MixSeed(info_.seed, static_cast<uint64_t>(f)));
    int n = rng.NextPoisson(info_.mean_objects_per_frame);
    auto& objs = frames_[static_cast<size_t>(f)];
    objs.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      GtObject o;
      o.obj_id = i;
      o.label_id = PickLabel(rng);
      o.type_id = PickSkewed(rng, VehicleTypes());
      o.color_id = PickSkewed(rng, VehicleColors());
      // Area skews small: most boxes are distant vehicles. u^2 * 0.6 puts
      // ~71% of boxes under area 0.3 and ~50% under 0.15.
      double u = rng.NextDouble();
      o.area = u * u * 0.6;
      o.score = 0.5 + 0.5 * rng.NextDouble();
      objs.push_back(o);
    }
  }
}

const std::vector<GtObject>& SyntheticVideo::FrameObjects(
    int64_t frame_id) const {
  if (frame_id < 0 || frame_id >= info_.num_frames) return empty_;
  return frames_[static_cast<size_t>(frame_id)];
}

double SyntheticVideo::MeanVehiclesPerFrame() const {
  if (frames_.empty()) return 0;
  double total = 0;
  for (const auto& objs : frames_) {
    for (const auto& o : objs) {
      if (o.label_id == kCar) total += 1;
    }
  }
  return total / static_cast<double>(frames_.size());
}

}  // namespace eva::vision
