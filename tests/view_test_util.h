// Test-side point lookup on a materialized view: the rows stored under one
// key, read through a one-key ProbeBatch (which seals the key's segment
// first, like any probe).

#ifndef EVA_TESTS_VIEW_TEST_UTIL_H_
#define EVA_TESTS_VIEW_TEST_UTIL_H_

#include <optional>
#include <vector>

#include "storage/view_store.h"

namespace eva::storage {

/// nullopt when `key` is absent; an empty vector for a presence-only key.
inline std::optional<std::vector<Row>> ReadKey(const MaterializedView& view,
                                               const ViewKey& key) {
  ProbeResult res;
  view.ProbeBatch({key}, nullptr, &res);
  const ProbeOutcome& oc = res.outcomes[0];
  if (oc.status == ProbeStatus::kMiss) return std::nullopt;
  std::vector<Row> rows;
  for (int32_t r = 0; r < oc.rows_count; ++r) {
    rows.push_back(res.segment(oc).RowAt(oc.rows_begin + r));
  }
  return rows;
}

}  // namespace eva::storage

#endif  // EVA_TESTS_VIEW_TEST_UTIL_H_
