// Test-side row access on a materialized view: a point lookup of the rows
// stored under one key, read through a one-key ProbeBatch (which seals the
// key's segment first, like any probe), and a put of one key's rows
// through PutBatch.

#ifndef EVA_TESTS_VIEW_TEST_UTIL_H_
#define EVA_TESTS_VIEW_TEST_UTIL_H_

#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "storage/view_store.h"

namespace eva::storage {

/// nullopt when `key` is absent; an empty vector for a presence-only key.
inline std::optional<std::vector<Row>> ReadKey(const MaterializedView& view,
                                               const ViewKey& key) {
  ProbeResult res;
  view.ProbeBatch({key}, &res);
  const ProbeOutcome& oc = res.outcomes[0];
  if (oc.status == ProbeStatus::kMiss) return std::nullopt;
  std::vector<Row> rows;
  for (int32_t r = 0; r < oc.rows_count; ++r) {
    rows.push_back(res.segment(oc).RowAt(oc.rows_begin + r));
  }
  return rows;
}

/// The columns of `lanes`, as PutBatch takes them.
inline std::vector<const ColumnVec*> LaneColumns(
    std::span<const TailLane> lanes) {
  std::vector<const ColumnVec*> cols;
  for (const TailLane& lane : lanes) cols.push_back(&lane.lane());
  return cols;
}

/// Puts `key` with `rows` unless it is already present; true when it was
/// inserted. The rows go into one lane per value-schema field, cell by
/// cell with TailLane::Append (cells past a row's end read as NULL), and
/// then into the view through one PutBatch stamped `tick` / `query_id`.
inline bool PutRows(MaterializedView* view, const ViewKey& key,
                    const std::vector<Row>& rows, uint64_t tick = 0,
                    int64_t query_id = -1) {
  std::vector<TailLane> lanes = LanesFor(view->value_schema());
  for (const Row& row : rows) {
    for (size_t c = 0; c < lanes.size(); ++c) {
      if (c < row.size()) {
        lanes[c].Append(row[c]);
      } else {
        lanes[c].AppendNull();
      }
    }
  }
  std::vector<uint32_t> row_ids(rows.size());
  std::iota(row_ids.begin(), row_ids.end(), uint32_t{0});
  const uint32_t key_rows[] = {0, static_cast<uint32_t>(rows.size())};
  PutRemaps remaps;
  std::vector<uint8_t> inserted;
  view->PutBatch({&key, 1}, false, key_rows, row_ids, LaneColumns(lanes),
                 [tick] { return tick; }, query_id, &remaps, &inserted);
  return inserted[0] != 0;
}

}  // namespace eva::storage

#endif  // EVA_TESTS_VIEW_TEST_UTIL_H_
