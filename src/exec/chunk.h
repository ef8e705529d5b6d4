#ifndef EVA_EXEC_CHUNK_H_
#define EVA_EXEC_CHUNK_H_

#include <cstdint>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "storage/column_segment.h"

namespace eva::exec {

/// The unit operators pass to each other: a schema plus one column lane per
/// field (docs/STORAGE.md, "Execution chunks"). The lanes are the view
/// tail's storage::TailLane, each typed by its field: Int64/Double/Bool
/// cells are typed lanes, strings are dictionary-coded, and a NULL is a
/// bit in the null bitmap. A cell of another type than its field's is a
/// programming error (the lane aborts), so lane(c).At(r) gives back
/// exactly the Value that was appended. Expressions are evaluated over
/// lanes (FilterProgram); rows exist only at the result boundary
/// (ExecutePlan), in Aggregate's group keys and in FunCache.
class Chunk {
 public:
  Chunk() = default;
  explicit Chunk(Schema schema)
      : schema_(std::move(schema)), cols_(storage::LanesFor(schema_)) {}

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return cols_.size(); }
  size_t num_rows() const { return cols_.empty() ? 0 : lane(0).size(); }
  bool empty() const { return num_rows() == 0; }

  const storage::ColumnVec& lane(size_t c) const { return cols_[c].lane(); }
  storage::TailLane& col(size_t c) { return cols_[c]; }
  const std::vector<storage::TailLane>& cols() const { return cols_; }

  Value At(size_t row, size_t c) const { return lane(c).At(row); }
  /// Appends one cell per field, each NULL or of the field's type; cells
  /// past the row's end are NULL.
  void AppendRow(const Row& row);

  /// Appends the chunk's rows to `out` (same schema), in order.
  void AppendTo(Batch* out) const;

 private:
  Schema schema_;
  std::vector<storage::TailLane> cols_;
};

/// Dictionary code tables for copying lanes of one source chunk into one
/// destination chunk, one per column pair; reset per source.
class LaneRemaps {
 public:
  std::vector<int32_t>* operator[](size_t c) {
    if (maps_.size() <= c) maps_.resize(c + 1);
    return &maps_[c];
  }
  void Clear() {
    for (std::vector<int32_t>& m : maps_) m.clear();
  }

 private:
  std::vector<std::vector<int32_t>> maps_;
};

/// Appends rows rows[0..n) of src columns [src_first, src_first + count)
/// to dst columns [dst_first, ...), in order: one index gather per column.
void GatherColumns(const Chunk& src, size_t src_first, size_t count,
                   const std::vector<uint32_t>& rows, Chunk* dst,
                   size_t dst_first, LaneRemaps* remaps);

/// The rows `rows` of `src`, in order, as a new chunk of the same schema.
Chunk GatherRows(const Chunk& src, const std::vector<uint32_t>& rows,
                 LaneRemaps* remaps);

}  // namespace eva::exec

#endif  // EVA_EXEC_CHUNK_H_
