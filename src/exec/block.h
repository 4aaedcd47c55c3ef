// Block-vectorized columnar kernel for buyer-side local evaluation.
//
// The row-at-a-time pipeline materialized every intermediate tuple as its
// own heap-allocated Row — one vector allocation (plus per-Value copies
// scattered across the heap) per joined row, per filtered row, per
// projected row. At high client counts that allocation traffic, not the
// market calls, dominated the local share of query latency.
//
// This kernel instead threads fixed-capacity blocks of column vectors
// through filter -> join -> project:
//
//   - a ColumnTable is a sequence of Blocks; each Block holds one
//     std::vector<Value> per column, at most kBlockCapacity rows;
//   - filters evaluate one predicate column at a time over a selection
//     vector and compact it (the classic vectorized-scan idiom), touching
//     only the columns a predicate mentions;
//   - joins collect matching (left row, right row) index pairs and then
//     gather the output column by column — no per-output-row allocation;
//   - projection is fused into the final column -> row gather.
//
// Everything is order-preserving and reproduces the row engine's results
// byte-for-byte: BlockHashJoin emits probe-order x build-insertion-order
// exactly like storage::HashJoin (including its build-on-smaller-side
// choice and NULL-key skipping), so result rows, row order, and every
// downstream aggregate are identical to the row-at-a-time path.
#ifndef PAYLESS_EXEC_BLOCK_H_
#define PAYLESS_EXEC_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "storage/table.h"

namespace payless::exec {

inline constexpr size_t kBlockShift = 10;
inline constexpr size_t kBlockCapacity = size_t{1} << kBlockShift;  // 1024
inline constexpr size_t kBlockMask = kBlockCapacity - 1;

/// One fixed-capacity batch of rows in columnar layout: `columns[c][i]` is
/// row i's value of column c; every column holds exactly `num_rows` values.
struct Block {
  explicit Block(size_t num_columns) : columns(num_columns) {}
  std::vector<std::vector<Value>> columns;
  size_t num_rows = 0;
};

/// A columnar table: fixed width, rows split across full kBlockCapacity
/// blocks (only the last block may be partial, so global row index i lives
/// at block i >> kBlockShift, offset i & kBlockMask). Supports the
/// zero-column table — the join pipeline's unit element still counts rows.
class ColumnTable {
 public:
  ColumnTable() = default;
  explicit ColumnTable(size_t num_columns) : num_columns_(num_columns) {}

  size_t num_columns() const { return num_columns_; }
  size_t num_rows() const { return num_rows_; }

  const Value& At(size_t row, size_t col) const {
    return blocks_[row >> kBlockShift].columns[col][row & kBlockMask];
  }
  Value& At(size_t row, size_t col) {
    return blocks_[row >> kBlockShift].columns[col][row & kBlockMask];
  }

  /// Appends `additional` default-constructed (NULL) rows; the caller fills
  /// them through At(). This is the gather-write primitive: grow once per
  /// output batch, then write column by column.
  void Grow(size_t additional);

  const std::vector<Block>& blocks() const { return blocks_; }

 private:
  size_t num_columns_ = 0;
  size_t num_rows_ = 0;
  std::vector<Block> blocks_;
};

/// Columnar -> row-major, preserving order.
std::vector<Row> RowsFromColumns(const ColumnTable& table);

/// Columnar -> row-major keeping only `columns`: output row value j is the
/// input row's column `columns[j]` (a projection fused into the gather).
std::vector<Row> RowsFromColumns(const ColumnTable& table,
                                 const std::vector<size_t>& columns);

/// Hash join on `keys` (left column, right column) pairs. Build side,
/// NULL-key handling, and output order are byte-identical to
/// storage::HashJoin; with empty keys it degenerates to BlockCartesian.
/// Output width = left width + right width.
ColumnTable BlockHashJoin(const ColumnTable& left, const ColumnTable& right,
                          const std::vector<std::pair<size_t, size_t>>& keys);

/// Cross product, left-major order (matches storage::Cartesian).
ColumnTable BlockCartesian(const ColumnTable& left, const ColumnTable& right);

}  // namespace payless::exec

#endif  // PAYLESS_EXEC_BLOCK_H_
