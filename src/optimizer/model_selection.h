#ifndef EVA_OPTIMIZER_MODEL_SELECTION_H_
#define EVA_OPTIMIZER_MODEL_SELECTION_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "exec/exec_context.h"
#include "symbolic/predicate.h"
#include "symbolic/stats.h"
#include "udf/udf_manager.h"

namespace eva::optimizer {

/// Outcome of the logical-UDF reuse optimization (§4.3, Algorithm 2).
struct ModelSelection {
  /// Materialized views to LEFT OUTER JOIN, in greedy pick order. Each
  /// entry is the physical UDF whose view is consumed.
  std::vector<std::string> view_udfs;
  /// The cheapest physical UDF satisfying the accuracy constraint; it is
  /// evaluated (and materialized) for the uncovered remainder.
  std::string execute_udf;
  /// DIFF of the query predicate against every picked view's coverage —
  /// the region `execute_udf` must actually compute.
  symbolic::Predicate remainder;
  /// Greedy trace, for reporting: (udf, cost-per-uncovered-tuple).
  std::vector<std::pair<std::string, double>> trace;
};

/// Algorithm 2: substitutes a logical UDF (e.g. ObjectDetector with a
/// minimum accuracy) by a cost-minimal set of physical UDFs / materialized
/// views, reducing the choice to a greedy weighted set cover whose weights
/// come from view read costs and whose coverage comes from the selectivity
/// of the symbolic intersection predicates.
///
/// With `use_reuse=false` this degenerates to MIN-COST(-NOREUSE): pick the
/// cheapest physical UDF and evaluate it everywhere.
Result<ModelSelection> SelectPhysicalUdfs(
    const catalog::Catalog& catalog, const udf::UdfManager& manager,
    const std::string& logical_type, const std::string& min_accuracy,
    const std::string& video_name, const symbolic::Predicate& query_pred,
    const symbolic::StatsProvider& stats, const exec::CostConstants& costs,
    bool use_reuse, const symbolic::SymbolicBudget& budget = {});

}  // namespace eva::optimizer

#endif  // EVA_OPTIMIZER_MODEL_SELECTION_H_
