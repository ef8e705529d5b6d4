#include <gtest/gtest.h>

#include <set>
#include <string>

#include "vision/models.h"
#include "vision/synthetic_video.h"

namespace eva::vision {
namespace {

catalog::VideoInfo Info(int64_t frames, double mean_objects,
                        uint64_t seed) {
  catalog::VideoInfo v;
  v.name = "test";
  v.num_frames = frames;
  v.mean_objects_per_frame = mean_objects;
  v.seed = seed;
  return v;
}

catalog::UdfDef DetectorDef(const std::string& name, double recall_large,
                            double recall_small) {
  catalog::UdfDef d;
  d.name = name;
  d.kind = catalog::UdfKind::kDetector;
  d.cost_ms = 99;
  d.recall = recall_large;
  d.recall_small = recall_small;
  return d;
}

TEST(SyntheticVideoTest, DeterministicAcrossInstances) {
  SyntheticVideo a(Info(50, 8, 42));
  SyntheticVideo b(Info(50, 8, 42));
  for (int64_t f = 0; f < 50; ++f) {
    const auto& oa = a.FrameObjects(f);
    const auto& ob = b.FrameObjects(f);
    ASSERT_EQ(oa.size(), ob.size());
    for (size_t i = 0; i < oa.size(); ++i) {
      EXPECT_EQ(oa[i].label(), ob[i].label());
      EXPECT_EQ(oa[i].car_type(), ob[i].car_type());
      EXPECT_EQ(oa[i].color(), ob[i].color());
      EXPECT_DOUBLE_EQ(oa[i].area, ob[i].area);
    }
  }
}

// FNV-1a over a name, then a separator byte.
uint64_t MixName(uint64_t h, const std::string& s) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  h ^= 0xff;
  return h * 1099511628211ULL;
}
constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

// The (label, type, color) names of a fixed seed, pinned to the values
// recorded when GtObject held the names themselves: storing vocabulary
// ids must keep every RNG draw and its order.
TEST(SyntheticVideoTest, NamesMatchRecordedFingerprint) {
  SyntheticVideo video(Info(300, 8, 2022));
  uint64_t h = kFnvBasis;
  int64_t objects = 0;
  for (int64_t f = 0; f < 300; ++f) {
    for (const GtObject& o : video.FrameObjects(f)) {
      h = MixName(h, o.label());
      h = MixName(h, o.car_type());
      h = MixName(h, o.color());
      ++objects;
    }
  }
  EXPECT_EQ(objects, 2435);
  EXPECT_EQ(h, 0x2157a68d33ab1079ULL);
}

// Detector labels and classifier outputs (modular, monolithic, and an
// object the frame does not hold) over the same video, pinned the same
// way.
TEST(ModelOutputTest, NamesMatchRecordedFingerprint) {
  SyntheticVideo video(Info(300, 8, 2022));
  DetectorModel det(DetectorDef("FRCNN", 0.95, 0.7));
  catalog::UdfDef type_def;
  type_def.name = "CarType";
  type_def.kind = catalog::UdfKind::kClassifier;
  type_def.classifier_accuracy = 0.9;
  type_def.target_attribute = "car_type";
  catalog::UdfDef color_def = type_def;
  color_def.name = "ColorDet";
  color_def.target_attribute = "color";
  catalog::UdfDef mono_def = type_def;
  mono_def.name = "RedNissan";
  mono_def.target_attribute = "is:red:nissan";
  ClassifierModel car_type(type_def), color(color_def), mono(mono_def);
  uint64_t h = kFnvBasis;
  int64_t detections = 0;
  for (int64_t f = 0; f < 300; ++f) {
    for (const Detection& d : det.Detect(video, f)) {
      h = MixName(h, d.label());
      h = MixName(h, std::to_string(d.obj_id));
      ++detections;
    }
    for (const GtObject& o : video.FrameObjects(f)) {
      h = MixName(h, car_type.Classify(video, f, o.obj_id).name());
      h = MixName(h, color.Classify(video, f, o.obj_id).name());
      h = MixName(h, mono.Classify(video, f, o.obj_id).name());
    }
    h = MixName(h, car_type.Classify(video, f, 9999).name());
  }
  EXPECT_EQ(detections, 1961);
  EXPECT_EQ(h, 0x96c5679d15948ed1ULL);
}

TEST(SyntheticVideoTest, SeedChangesContent) {
  SyntheticVideo a(Info(50, 8, 1));
  SyntheticVideo b(Info(50, 8, 2));
  int differing = 0;
  for (int64_t f = 0; f < 50; ++f) {
    if (a.FrameObjects(f).size() != b.FrameObjects(f).size()) ++differing;
  }
  EXPECT_GT(differing, 5);
}

TEST(SyntheticVideoTest, DensityMatchesConfiguration) {
  SyntheticVideo dense(Info(2000, 8.3 / 0.8, 7));
  SyntheticVideo sparse(Info(2000, 0.1 / 0.8, 7));
  EXPECT_NEAR(dense.MeanVehiclesPerFrame(), 8.3, 0.5);
  EXPECT_NEAR(sparse.MeanVehiclesPerFrame(), 0.1, 0.05);
}

TEST(SyntheticVideoTest, AttributesComeFromVocabularies) {
  SyntheticVideo video(Info(200, 8, 11));
  std::set<std::string> labels(ObjectLabels().begin(),
                               ObjectLabels().end());
  std::set<std::string> types(VehicleTypes().begin(), VehicleTypes().end());
  std::set<std::string> colors(VehicleColors().begin(),
                               VehicleColors().end());
  for (int64_t f = 0; f < 200; ++f) {
    for (const GtObject& o : video.FrameObjects(f)) {
      EXPECT_TRUE(labels.count(o.label())) << o.label();
      EXPECT_TRUE(types.count(o.car_type())) << o.car_type();
      EXPECT_TRUE(colors.count(o.color())) << o.color();
      EXPECT_GE(o.area, 0.0);
      EXPECT_LE(o.area, 0.6);
      EXPECT_GE(o.score, 0.5);
      EXPECT_LE(o.score, 1.0);
    }
  }
}

TEST(SyntheticVideoTest, OutOfRangeFrameIsEmpty) {
  SyntheticVideo video(Info(10, 8, 11));
  EXPECT_TRUE(video.FrameObjects(-1).empty());
  EXPECT_TRUE(video.FrameObjects(10).empty());
}

TEST(DetectorModelTest, DeterministicDetections) {
  SyntheticVideo video(Info(100, 10, 3));
  DetectorModel model(DetectorDef("FRCNN", 0.95, 0.7));
  for (int64_t f = 0; f < 20; ++f) {
    auto a = model.Detect(video, f);
    auto b = model.Detect(video, f);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].obj_id, b[i].obj_id);
      EXPECT_EQ(a[i].label_id, b[i].label_id);
    }
  }
}

TEST(DetectorModelTest, HigherRecallFindsSupersetOnAverage) {
  SyntheticVideo video(Info(500, 10, 5));
  DetectorModel weak(DetectorDef("Weak", 0.9, 0.3));
  DetectorModel strong(DetectorDef("Strong", 0.98, 0.9));
  int64_t weak_total = 0, strong_total = 0, gt_total = 0;
  for (int64_t f = 0; f < 500; ++f) {
    weak_total += static_cast<int64_t>(weak.Detect(video, f).size());
    strong_total += static_cast<int64_t>(strong.Detect(video, f).size());
    gt_total += static_cast<int64_t>(video.FrameObjects(f).size());
  }
  EXPECT_LT(weak_total, strong_total);
  EXPECT_LE(strong_total, gt_total);
  // Two-tier recall: the weak model finds roughly 0.42*0.9 + 0.58*0.3 of
  // all objects.
  double weak_recall =
      static_cast<double>(weak_total) / static_cast<double>(gt_total);
  EXPECT_NEAR(weak_recall, 0.42 * 0.9 + 0.58 * 0.3, 0.08);
}

TEST(DetectorModelTest, LargeObjectsAlmostAlwaysDetected) {
  SyntheticVideo video(Info(500, 10, 9));
  DetectorModel weak(DetectorDef("Weak", 0.9, 0.3));
  int64_t large_gt = 0, large_found = 0;
  for (int64_t f = 0; f < 500; ++f) {
    std::set<int> found;
    for (const auto& d : weak.Detect(video, f)) found.insert(d.obj_id);
    for (const auto& o : video.FrameObjects(f)) {
      if (o.area >= 0.2) {
        ++large_gt;
        if (found.count(o.obj_id)) ++large_found;
      }
    }
  }
  EXPECT_NEAR(static_cast<double>(large_found) / large_gt, 0.9, 0.05);
}

TEST(ClassifierModelTest, AccuracyAndDeterminism) {
  SyntheticVideo video(Info(300, 10, 13));
  catalog::UdfDef def;
  def.name = "CarType";
  def.kind = catalog::UdfKind::kClassifier;
  def.classifier_accuracy = 0.92;
  def.target_attribute = "car_type";
  ClassifierModel model(def);
  int64_t correct = 0, total = 0;
  for (int64_t f = 0; f < 300; ++f) {
    for (const GtObject& o : video.FrameObjects(f)) {
      std::string first = model.Classify(video, f, o.obj_id).name();
      EXPECT_EQ(first, model.Classify(video, f, o.obj_id).name());  // stable
      ++total;
      if (first == o.car_type()) ++correct;
    }
  }
  EXPECT_NEAR(static_cast<double>(correct) / total, 0.92, 0.03);
}

TEST(ClassifierModelTest, ColorTargetUsesColorVocabulary) {
  SyntheticVideo video(Info(50, 10, 17));
  catalog::UdfDef def;
  def.name = "ColorDet";
  def.kind = catalog::UdfKind::kClassifier;
  def.classifier_accuracy = 1.0;
  def.target_attribute = "color";
  ClassifierModel model(def);
  for (const GtObject& o : video.FrameObjects(0)) {
    EXPECT_EQ(model.Classify(video, 0, o.obj_id).name(), o.color());
  }
  EXPECT_EQ(model.Classify(video, 0, 9999).name(), "unknown");
}

TEST(FilterModelTest, RecallOnVehicleFrames) {
  SyntheticVideo video(Info(1000, 8, 21));
  catalog::UdfDef def;
  def.name = "VehicleFilter";
  def.kind = catalog::UdfKind::kFilter;
  FilterModel model(def);
  int64_t vehicle_frames = 0, passed = 0;
  for (int64_t f = 0; f < 1000; ++f) {
    bool has = false;
    for (const GtObject& o : video.FrameObjects(f)) {
      if (o.label() != "person") has = true;
    }
    if (has) {
      ++vehicle_frames;
      if (model.Pass(video, f)) ++passed;
    }
  }
  // Dense video: almost every frame has vehicles; ~98% must pass.
  EXPECT_GT(vehicle_frames, 900);
  EXPECT_NEAR(static_cast<double>(passed) / vehicle_frames, 0.98, 0.02);
}

TEST(FilterModelTest, EmptyFramesMostlyFiltered) {
  SyntheticVideo video(Info(2000, 0.05, 23));
  catalog::UdfDef def;
  def.name = "VehicleFilter";
  def.kind = catalog::UdfKind::kFilter;
  FilterModel model(def);
  int64_t empty_frames = 0, passed = 0;
  for (int64_t f = 0; f < 2000; ++f) {
    if (video.FrameObjects(f).empty()) {
      ++empty_frames;
      if (model.Pass(video, f)) ++passed;
    }
  }
  ASSERT_GT(empty_frames, 1000);
  // Conservative filter: ~50% false positives on empty frames.
  EXPECT_NEAR(static_cast<double>(passed) / empty_frames, 0.5, 0.05);
}

}  // namespace
}  // namespace eva::vision
