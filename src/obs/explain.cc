#include "obs/explain.h"

#include <cstdio>

namespace eva::obs {

namespace {

void RenderNode(const plan::PlanNode& node, const PlanStatsMap& stats,
                int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.Describe();
  auto it = stats.find(&node);
  if (it != stats.end()) {
    const OperatorStats& s = it->second;
    double child_sim = 0;
    for (const plan::PlanNodePtr& child : node.children()) {
      auto cit = stats.find(child.get());
      if (cit != stats.end()) child_sim += cit->second.sim_ms;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  " [rows=%lld batches=%lld sim=%.3fms self=%.3fms",
                  static_cast<long long>(s.rows_out),
                  static_cast<long long>(s.batches),
                  static_cast<double>(s.sim_ms),
                  static_cast<double>(s.sim_ms) - child_sim);
    *out += buf;
    if (s.view_hits > 0 || s.view_misses > 0) {
      std::snprintf(buf, sizeof(buf), " view_hits=%lld view_misses=%lld",
                    static_cast<long long>(s.view_hits),
                    static_cast<long long>(s.view_misses));
      *out += buf;
    }
    if (s.udf_invocations > 0) {
      std::snprintf(buf, sizeof(buf), " udf_calls=%lld",
                    static_cast<long long>(s.udf_invocations));
      *out += buf;
    }
    if (s.rows_reused > 0) {
      std::snprintf(buf, sizeof(buf), " reused=%lld",
                    static_cast<long long>(s.rows_reused));
      *out += buf;
    }
    if (s.rows_materialized > 0) {
      std::snprintf(buf, sizeof(buf), " materialized=%lld",
                    static_cast<long long>(s.rows_materialized));
      *out += buf;
    }
    if (s.udf_retries > 0) {
      std::snprintf(buf, sizeof(buf), " retries=%lld",
                    static_cast<long long>(s.udf_retries));
      *out += buf;
    }
    *out += ']';
  }
  *out += '\n';
  for (const plan::PlanNodePtr& child : node.children()) {
    RenderNode(*child, stats, depth + 1, out);
  }
}

}  // namespace

std::string RenderAnalyzedPlan(const plan::PlanNode& root,
                               const PlanStatsMap& stats) {
  std::string out;
  RenderNode(root, stats, 0, &out);
  return out;
}

}  // namespace eva::obs
