#include "exec/chunk.h"

namespace eva::exec {

void Chunk::AppendRow(const Row& row) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (c < row.size()) {
      cols_[c].Append(row[c]);
    } else {
      cols_[c].AppendNull();
    }
  }
}

void Chunk::AppendTo(Batch* out) const {
  std::vector<Row>& rows = out->mutable_rows();
  const size_t base = rows.size();
  const size_t n = num_rows();
  rows.resize(base + n);
  for (size_t r = 0; r < n; ++r) rows[base + r].reserve(cols_.size());
  // Column at a time: one lane's reads stay together.
  for (const storage::TailLane& c : cols_) {
    const storage::ColumnVec& lane = c.lane();
    for (size_t r = 0; r < n; ++r) rows[base + r].push_back(lane.At(r));
  }
}

void GatherColumns(const Chunk& src, size_t src_first, size_t count,
                   const std::vector<uint32_t>& rows, Chunk* dst,
                   size_t dst_first, LaneRemaps* remaps) {
  for (size_t c = 0; c < count; ++c) {
    dst->col(dst_first + c)
        .AppendGather(src.lane(src_first + c), rows.data(), rows.size(),
                      (*remaps)[dst_first + c]);
  }
}

Chunk GatherRows(const Chunk& src, const std::vector<uint32_t>& rows,
                 LaneRemaps* remaps) {
  Chunk out(src.schema());
  remaps->Clear();
  GatherColumns(src, 0, src.num_columns(), rows, &out, 0, remaps);
  return out;
}

}  // namespace eva::exec
