#include "optimizer/model_selection.h"

#include <algorithm>
#include <limits>

#include "symbolic/stats.h"

namespace eva::optimizer {

namespace {
constexpr double kEps = 1e-9;
}  // namespace

Result<ModelSelection> SelectPhysicalUdfs(
    const catalog::Catalog& catalog, const udf::UdfManager& manager,
    const std::string& logical_type, const std::string& min_accuracy,
    const std::string& video_name, const symbolic::Predicate& query_pred,
    const symbolic::StatsProvider& stats, const exec::CostConstants& costs,
    bool use_reuse, const symbolic::SymbolicBudget& budget) {
  // Line 2: physical UDFs satisfying the constraints.
  std::vector<catalog::UdfDef> candidates =
      catalog.PhysicalUdfsFor(logical_type, min_accuracy);
  if (candidates.empty()) {
    return Status::BindError("no physical UDF implements " + logical_type +
                             " with accuracy >= " + min_accuracy);
  }
  // Line 3: the cheapest physical UDF (candidates are sorted by cost).
  const catalog::UdfDef& cheapest = candidates.front();

  ModelSelection out;
  out.execute_udf = cheapest.name;
  out.remainder = query_pred;
  if (!use_reuse) return out;  // MIN-COST(-NOREUSE) baselines

  // Greedy weighted set cover (lines 4-14). Universe: frames satisfying
  // the query predicate. Sets: the views' coverage predicates. Weights:
  // view read costs. Reading a covered frame costs
  // view_read_ms_per_row × (average object rows per frame).
  const double read_per_covered =
      costs.view_read_ms_per_row * 8.0 + costs.view_probe_ms_per_key;
  for (size_t iter = 0; iter <= candidates.size(); ++iter) {
    double q_sel =
        symbolic::PredicateSelectivity(out.remainder, stats);
    if (out.remainder.DefinitelyFalse() || q_sel < kEps) break;
    // Line 6: cost per uncovered tuple for every candidate view. The
    // winner is remembered by key only — no per-candidate copy of its
    // coverage predicate; nothing mutates the manager inside the loop.
    double best_w = std::numeric_limits<double>::infinity();
    const catalog::UdfDef* best = nullptr;
    std::string best_key;
    for (const catalog::UdfDef& x : candidates) {
      std::string key = x.name + "@" + video_name;
      const symbolic::Predicate& p_x = manager.Coverage(key);
      if (p_x.IsFalse()) continue;
      // Skip views already picked: their coverage was subtracted.
      if (std::find(out.view_udfs.begin(), out.view_udfs.end(), x.name) !=
          out.view_udfs.end()) {
        continue;
      }
      auto inter = manager.InterCoverage(key, out.remainder, budget);
      if (!inter.ok()) continue;  // budget blown: ignore this candidate
      double covered = symbolic::PredicateSelectivity(inter.value(), stats);
      if (covered < kEps) continue;
      double view_sel = symbolic::PredicateSelectivity(p_x, stats);
      double w = read_per_covered * view_sel / covered;
      if (w < best_w) {
        best_w = w;
        best = &x;
        best_key = key;
      }
    }
    // Line 8: materialized view vs. running the cheapest UDF.
    if (best == nullptr || best_w >= cheapest.cost_ms) break;
    out.view_udfs.push_back(best->name);
    out.trace.emplace_back(best->name, best_w);
    auto diff = manager.DiffCoverage(best_key, out.remainder, budget);
    if (!diff.ok()) break;  // keep the conservative remainder
    out.remainder = diff.MoveValue();
  }
  return out;
}

}  // namespace eva::optimizer
