#ifndef EVA_PLAN_PLAN_H_
#define EVA_PLAN_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"

namespace eva::plan {

enum class PlanKind {
  kVideoScan = 0,
  kFilter,
  kProject,
  kApply,       // evaluate a UDF for every input row (Fig. 3 rewrite)
  kCondApply,   // evaluate only for rows with NULL outputs (Fig. 4 step 2)
  kViewJoin,    // LEFT OUTER JOIN with a materialized view (Fig. 4 step 1)
  kStore,       // append fresh UDF results to the view (Fig. 4 step 3)
  kAggregate,
  kLimit,
};

const char* PlanKindName(PlanKind kind);

class PlanNode;
using PlanNodePtr = std::shared_ptr<PlanNode>;

/// Base class of physical plan nodes. The optimizer produces a tree of
/// these; the executor instantiates one operator per node.
class PlanNode {
 public:
  explicit PlanNode(PlanKind kind) : kind_(kind) {}
  virtual ~PlanNode() = default;

  PlanKind kind() const { return kind_; }
  const std::vector<PlanNodePtr>& children() const { return children_; }
  void AddChild(PlanNodePtr child) { children_.push_back(std::move(child)); }
  const PlanNodePtr& child() const { return children_.front(); }

  /// One-line description of this node (no children).
  virtual std::string Describe() const = 0;

  /// Multi-line indented tree rendering (EXPLAIN output).
  std::string ToString(int indent = 0) const;

 private:
  PlanKind kind_;
  std::vector<PlanNodePtr> children_;
};

/// Scans frames of a video, with the id-range predicate pushed down.
class VideoScanNode : public PlanNode {
 public:
  VideoScanNode(std::string video, int64_t lo, int64_t hi)
      : PlanNode(PlanKind::kVideoScan),
        video_(std::move(video)),
        lo_(lo),
        hi_(hi) {}

  const std::string& video() const { return video_; }
  int64_t lo() const { return lo_; }
  int64_t hi() const { return hi_; }

  std::string Describe() const override;

 private:
  std::string video_;
  int64_t lo_;  // inclusive
  int64_t hi_;  // exclusive
};

/// Filters rows by a residual (non-UDF-invoking) boolean expression.
class FilterNode : public PlanNode {
 public:
  explicit FilterNode(expr::ExprPtr predicate)
      : PlanNode(PlanKind::kFilter), predicate_(std::move(predicate)) {}

  const expr::ExprPtr& predicate() const { return predicate_; }

  std::string Describe() const override;

 private:
  expr::ExprPtr predicate_;
};

/// Evaluates UDF `udf` for every input row: detectors expand frames into
/// object rows; classifiers/filters annotate a new output column named
/// after the UDF.
class ApplyNode : public PlanNode {
 public:
  explicit ApplyNode(std::string udf)
      : PlanNode(PlanKind::kApply), udf_(std::move(udf)) {}

  const std::string& udf() const { return udf_; }

  std::string Describe() const override;

 private:
  std::string udf_;
};

/// Conditional apply (A[p*]): evaluates `udf` only for rows whose outputs
/// are NULL — i.e., tuples missing from the joined materialized view.
class CondApplyNode : public PlanNode {
 public:
  explicit CondApplyNode(std::string udf)
      : PlanNode(PlanKind::kCondApply), udf_(std::move(udf)) {}

  const std::string& udf() const { return udf_; }

  std::string Describe() const override;

 private:
  std::string udf_;
};

/// LEFT OUTER JOIN of the input with the materialized view of `udf`.
/// Rows found in the view get their outputs populated; missing rows get
/// NULL outputs for the conditional apply above to fill.
class ViewJoinNode : public PlanNode {
 public:
  ViewJoinNode(std::string udf, std::string view_name)
      : PlanNode(PlanKind::kViewJoin),
        udf_(std::move(udf)),
        view_name_(std::move(view_name)) {}

  const std::string& udf() const { return udf_; }
  const std::string& view_name() const { return view_name_; }

  /// HashStash semantics: the recycler dedups the union of all matched
  /// operator outputs, so the whole view is read, not just probed keys.
  bool scan_all_for_dedup() const { return scan_all_for_dedup_; }
  void set_scan_all_for_dedup(bool v) { scan_all_for_dedup_ = v; }

  std::string Describe() const override;

 private:
  std::string udf_;
  std::string view_name_;
  bool scan_all_for_dedup_ = false;
};

/// Appends freshly computed UDF results to the materialized view (the
/// STORE operator of Fig. 4); pass-through for already-present keys.
class StoreNode : public PlanNode {
 public:
  StoreNode(std::string udf, std::string view_name)
      : PlanNode(PlanKind::kStore),
        udf_(std::move(udf)),
        view_name_(std::move(view_name)) {}

  const std::string& udf() const { return udf_; }
  const std::string& view_name() const { return view_name_; }

  std::string Describe() const override;

 private:
  std::string udf_;
  std::string view_name_;
};

/// Final projection of the SELECT list.
class ProjectNode : public PlanNode {
 public:
  ProjectNode(std::vector<expr::ExprPtr> exprs,
              std::vector<std::string> names)
      : PlanNode(PlanKind::kProject),
        exprs_(std::move(exprs)),
        names_(std::move(names)) {}

  const std::vector<expr::ExprPtr>& exprs() const { return exprs_; }
  const std::vector<std::string>& names() const { return names_; }

  std::string Describe() const override;

 private:
  std::vector<expr::ExprPtr> exprs_;
  std::vector<std::string> names_;
};

/// GROUP BY + COUNT(*) aggregation (Q4-style traffic monitoring).
class AggregateNode : public PlanNode {
 public:
  explicit AggregateNode(std::vector<std::string> group_by)
      : PlanNode(PlanKind::kAggregate), group_by_(std::move(group_by)) {}

  const std::vector<std::string>& group_by() const { return group_by_; }

  std::string Describe() const override;

 private:
  std::vector<std::string> group_by_;
};

/// LIMIT n: stops pulling from the child once n rows were emitted.
class LimitNode : public PlanNode {
 public:
  explicit LimitNode(int64_t limit)
      : PlanNode(PlanKind::kLimit), limit_(limit) {}

  int64_t limit() const { return limit_; }

  std::string Describe() const override;

 private:
  int64_t limit_;
};

}  // namespace eva::plan

#endif  // EVA_PLAN_PLAN_H_
