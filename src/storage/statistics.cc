#include "storage/statistics.h"

#include <algorithm>
#include <cmath>

namespace eva::storage {

Histogram::Histogram(double lo, double hi, int num_bins)
    : lo_(lo),
      hi_(hi),
      width_((hi - lo) / num_bins),
      bins_(static_cast<size_t>(num_bins), 0) {}

void Histogram::Add(double v) {
  if (bins_.empty()) return;
  int idx = static_cast<int>((v - lo_) / width_);
  idx = std::clamp(idx, 0, static_cast<int>(bins_.size()) - 1);
  ++bins_[static_cast<size_t>(idx)];
  ++total_;
}

double Histogram::FractionIn(const symbolic::Interval& interval) const {
  if (total_ == 0 || interval.IsEmpty()) return 0;
  if (interval.IsFull()) return 1;
  double lo = interval.lo().infinite ? lo_ : interval.lo().value;
  double hi = interval.hi().infinite ? hi_ : interval.hi().value;
  lo = std::max(lo, lo_);
  hi = std::min(hi, hi_);
  if (lo >= hi) return 0;
  double count = 0;
  for (size_t i = 0; i < bins_.size(); ++i) {
    double blo = lo_ + width_ * static_cast<double>(i);
    double bhi = blo + width_;
    double overlap = std::min(hi, bhi) - std::max(lo, blo);
    if (overlap <= 0) continue;
    count += static_cast<double>(bins_[i]) * (overlap / width_);
  }
  return count / static_cast<double>(total_);
}

StatisticsManager::StatisticsManager(const vision::SyntheticVideo& video,
                                     int64_t sample_frames)
    : num_frames_(video.num_frames()),
      area_hist_(0.0, 0.6, 24),
      score_hist_(0.5, 1.0, 20) {
  int64_t step = std::max<int64_t>(1, num_frames_ / sample_frames);
  // Counted by vocabulary id; a name that never occurs gets no frequency.
  std::vector<int64_t> label_counts(vision::ObjectLabels().size());
  std::vector<int64_t> type_counts(vision::VehicleTypes().size());
  std::vector<int64_t> color_counts(vision::VehicleColors().size());
  int64_t total_objects = 0;
  for (int64_t f = 0; f < num_frames_; f += step) {
    for (const auto& o : video.FrameObjects(f)) {
      ++total_objects;
      ++label_counts[o.label_id];
      ++type_counts[o.type_id];
      ++color_counts[o.color_id];
      area_hist_.Add(o.area);
      score_hist_.Add(o.score);
    }
  }
  if (total_objects == 0) total_objects = 1;
  auto publish = [total_objects](const std::vector<std::string>& vocab,
                                 const std::vector<int64_t>& counts,
                                 std::map<std::string, double>* freq) {
    for (size_t i = 0; i < vocab.size(); ++i) {
      if (counts[i] == 0) continue;
      (*freq)[vocab[i]] = static_cast<double>(counts[i]) /
                          static_cast<double>(total_objects);
    }
  };
  publish(vision::ObjectLabels(), label_counts, &label_freq_);
  publish(vision::VehicleTypes(), type_counts, &type_freq_);
  publish(vision::VehicleColors(), color_counts, &color_freq_);
}

symbolic::DimKind StatisticsManager::KindOf(const std::string& dim) const {
  if (dim == "id" || dim == "obj") return symbolic::DimKind::kInteger;
  if (dim == "area" || dim == "score" || dim == "timestamp") {
    return symbolic::DimKind::kReal;
  }
  // label and every classifier-UDF output dimension are categorical.
  return symbolic::DimKind::kCategorical;
}

double StatisticsManager::CategoricalFraction(const std::string& dim,
                                              const std::string& value) const {
  // Single find per map (the old contains-then-find did each twice).
  if (dim == "label") {
    auto it = label_freq_.find(value);
    return it == label_freq_.end() ? 0.0 : it->second;
  }
  if (auto it = type_freq_.find(value); it != type_freq_.end()) {
    return it->second;
  }
  if (auto it = color_freq_.find(value); it != color_freq_.end()) {
    return it->second;
  }
  return 0.1;  // unknown vocabulary: fall back to a default guess
}

double StatisticsManager::ConstraintSelectivity(
    const std::string& dim, const symbolic::DimConstraint& c) const {
  using symbolic::DimKind;
  if (c.IsFull()) return 1;
  if (c.IsEmpty()) return 0;
  if (c.is_categorical()) {
    double s = 0;
    for (const std::string& v : c.categorical_values()) {
      s += CategoricalFraction(dim, v);
    }
    return c.categorical_exclude() ? std::max(0.0, 1.0 - s) : s;
  }
  if (dim == "id" || dim == "obj") {
    double n = static_cast<double>(std::max<int64_t>(1, num_frames_));
    const symbolic::Interval& iv = c.interval();
    double lo = iv.lo().infinite ? 0 : std::max(0.0, iv.lo().value);
    double hi =
        iv.hi().infinite ? n - 1 : std::min(n - 1, iv.hi().value);
    if (lo > hi) return 0;
    double count = hi - lo + 1;
    // Integer bounds are closed after normalization; subtract excluded ids.
    for (double p : c.excluded_points()) {
      if (p >= lo && p <= hi) count -= 1;
    }
    return std::clamp(count / n, 0.0, 1.0);
  }
  const Histogram& h = dim == "score" ? score_hist_ : area_hist_;
  return h.FractionIn(c.interval());
}

}  // namespace eva::storage
