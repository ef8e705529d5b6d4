#ifndef EVA_LIFECYCLE_EVICTION_POLICY_H_
#define EVA_LIFECYCLE_EVICTION_POLICY_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "exec/exec_context.h"
#include "storage/view_store.h"

namespace eva::lifecycle {

/// Which segment-eviction policy the lifecycle manager runs when the view
/// store exceeds its budget.
enum class EvictionPolicyKind {
  kCostBenefit = 0,  // Eq. 4-derived score: expected recompute savings/byte
  kLru,              // least-recently-accessed segment first
  kFifo,             // oldest-created segment first
};

const char* EvictionPolicyName(EvictionPolicyKind kind);
Result<EvictionPolicyKind> ParseEvictionPolicy(const std::string& name);

/// One evictable unit: a frame-range segment of a materialized view, plus
/// the evaluation cost of the UDF whose results it holds (from the
/// catalog — the c_e that Eq. 3/Eq. 4 charge for recomputation).
struct SegmentCandidate {
  std::string view;  // view key, "<udf>@<video>"
  storage::SegmentStats seg;
  double cost_e_ms = 0;
};

struct ScoreContext {
  int64_t current_query = 0;
  /// Access-clock reading at eviction time (ViewStore tick counter); every
  /// probe/write advances it, so tick distance is a fine-grained recency
  /// measure even within one query.
  uint64_t current_tick = 0;
  /// Tick volume of the most recent query — the natural unit for "how
  /// stale is this segment" when queries do most of their probing in frame
  /// order. Calibrated by the lifecycle manager between queries.
  uint64_t ticks_per_query = 1;
  exec::CostConstants costs;
};

/// Scores a candidate segment; the lifecycle manager evicts the LOWEST
/// score first (ties broken deterministically by view name, segment id).
/// Policies are stateless — everything they need is in the candidate and
/// context — which keeps eviction reproducible across runs.
class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;
  virtual EvictionPolicyKind kind() const = 0;
  virtual double Score(const SegmentCandidate& cand,
                       const ScoreContext& ctx) const = 0;
  const char* name() const { return EvictionPolicyName(kind()); }
};

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionPolicyKind kind);

}  // namespace eva::lifecycle

#endif  // EVA_LIFECYCLE_EVICTION_POLICY_H_
