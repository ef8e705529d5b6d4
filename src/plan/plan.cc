#include "plan/plan.h"

#include <sstream>

namespace eva::plan {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kVideoScan:
      return "VideoScan";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kApply:
      return "Apply";
    case PlanKind::kCondApply:
      return "CondApply";
    case PlanKind::kViewJoin:
      return "ViewJoin";
    case PlanKind::kStore:
      return "Store";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kLimit:
      return "Limit";
  }
  return "Unknown";
}

std::string PlanNode::ToString(int indent) const {
  std::ostringstream os;
  os << std::string(static_cast<size_t>(indent) * 2, ' ') << Describe()
     << "\n";
  for (const PlanNodePtr& c : children_) os << c->ToString(indent + 1);
  return os.str();
}

std::string VideoScanNode::Describe() const {
  std::ostringstream os;
  os << "VideoScan(" << video_ << ", id in [" << lo_ << ", " << hi_ << "))";
  return os.str();
}

std::string FilterNode::Describe() const {
  return "Filter(" + predicate_->ToString() + ")";
}

std::string ApplyNode::Describe() const { return "Apply(" + udf_ + ")"; }

std::string CondApplyNode::Describe() const {
  return "CondApply(" + udf_ + " if outputs NULL)";
}

std::string ViewJoinNode::Describe() const {
  std::string out = "ViewJoin(" + view_name_ + ")";
  if (scan_all_for_dedup_) out += " [full-scan dedup]";
  return out;
}

std::string StoreNode::Describe() const {
  return "Store(" + view_name_ + ")";
}

std::string ProjectNode::Describe() const {
  std::string out = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString();
  }
  out += ")";
  return out;
}

std::string LimitNode::Describe() const {
  return "Limit(" + std::to_string(limit_) + ")";
}

std::string AggregateNode::Describe() const {
  std::string out = "Aggregate(COUNT(*) GROUP BY ";
  for (size_t i = 0; i < group_by_.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_by_[i];
  }
  out += ")";
  return out;
}

}  // namespace eva::plan
