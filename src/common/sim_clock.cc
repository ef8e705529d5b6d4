#include "common/sim_clock.h"

#include <sstream>

namespace eva {

const char* CostCategoryName(CostCategory c) {
  switch (c) {
    case CostCategory::kUdf:
      return "udf";
    case CostCategory::kReadVideo:
      return "read_video";
    case CostCategory::kReadView:
      return "read_view";
    case CostCategory::kMaterialize:
      return "materialize";
    case CostCategory::kOptimize:
      return "optimize";
    case CostCategory::kHashing:
      return "hashing";
    case CostCategory::kOther:
      return "other";
    case CostCategory::kIngest:
      return "ingest";
    case CostCategory::kNumCategories:
      break;
  }
  return "unknown";
}

void SimClock::Reset() { ms_.fill(0.0); }

double SimClock::Elapsed(CostCategory category) const {
  return ms_[static_cast<size_t>(category)];
}

double SimClock::TotalMs() const {
  double total = 0;
  for (double v : ms_) total += v;
  return total;
}

double SimClock::Snapshot::Total() const {
  double total = 0;
  for (double v : ms) total += v;
  return total;
}

SimClock::Snapshot SimClock::Snapshot::operator-(const Snapshot& other) const {
  Snapshot out;
  for (size_t i = 0; i < ms.size(); ++i) out.ms[i] = ms[i] - other.ms[i];
  return out;
}

SimClock::Snapshot SimClock::TakeSnapshot() const {
  Snapshot s;
  s.ms = ms_;
  return s;
}

std::string SimClock::ToString() const {
  std::ostringstream os;
  os << "SimClock{";
  for (size_t i = 0; i < ms_.size(); ++i) {
    if (i > 0) os << ", ";
    os << CostCategoryName(static_cast<CostCategory>(i)) << "=" << ms_[i]
       << "ms";
  }
  os << "}";
  return os.str();
}

}  // namespace eva
