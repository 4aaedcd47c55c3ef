#include "semstore/semantic_store.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <mutex>
#include <sstream>

namespace payless::semstore {

namespace {

/// Writes the lattice point of `row` over the constrainable columns `dims`
/// to `point` (dims.size() slots); false if some value has no code.
bool EncodePoint(const catalog::TableDef& def, const std::vector<size_t>& dims,
                 const Row& row, int64_t* point) {
  for (size_t d = 0; d < dims.size(); ++d) {
    const std::optional<int64_t> code =
        def.columns[dims[d]].domain.Encode(row[dims[d]]);
    if (!code.has_value()) return false;
    point[d] = *code;
  }
  return true;
}

}  // namespace

std::optional<std::vector<int64_t>> RowPoint(const catalog::TableDef& def,
                                             const Row& row) {
  const std::vector<size_t> dims = def.ConstrainableColumns();
  std::vector<int64_t> point(dims.size());
  if (!EncodePoint(def, dims, row, point.data())) return std::nullopt;
  return point;
}

namespace {

/// If `a` and `b` differ on at most one dimension and overlap or touch
/// there, returns true and writes their exact union (the hull) to `merged`.
bool TryMergeBoxes(const Box& a, const Box& b, Box* merged) {
  size_t diff_dim = a.num_dims();
  for (size_t d = 0; d < a.num_dims(); ++d) {
    if (a.dim(d) == b.dim(d)) continue;
    if (diff_dim != a.num_dims()) return false;  // differ on two dims
    diff_dim = d;
  }
  if (diff_dim == a.num_dims()) {  // identical
    *merged = a;
    return true;
  }
  const Interval& x = a.dim(diff_dim);
  const Interval& y = b.dim(diff_dim);
  // Overlapping or adjacent intervals merge into their hull exactly.
  if (x.hi + 1 < y.lo || y.hi + 1 < x.lo) return false;
  *merged = a;
  merged->dim(diff_dim) =
      Interval(std::min(x.lo, y.lo), std::max(x.hi, y.hi));
  return true;
}

/// Rough retained size of one row: variant overhead plus string payloads.
int64_t ApproxRowBytes(const Row& row) {
  int64_t bytes = 0;
  for (const Value& value : row) {
    bytes += 16;
    if (value.is_string()) {
      bytes += static_cast<int64_t>(value.AsString().size());
    }
  }
  return bytes;
}

/// Lattice size of the table's constrainable-attribute space, saturating
/// on overflow (astronomically large domains just read as fraction ~0).
int64_t DomainVolume(const catalog::TableDef& def) {
  long double volume = 1.0L;
  for (size_t col : def.ConstrainableColumns()) {
    volume *= static_cast<long double>(def.columns[col].domain.size());
  }
  constexpr long double kMax =
      static_cast<long double>(std::numeric_limits<int64_t>::max());
  if (volume >= kMax) return std::numeric_limits<int64_t>::max();
  return static_cast<int64_t>(volume);
}

}  // namespace

void SemanticStore::AddCoverage(std::vector<Box>* coverage, Box region) {
  std::vector<Box>& list = *coverage;
  for (const Box& box : list) {
    if (box.Contains(region)) return;
  }
  std::erase_if(list, [&](const Box& box) { return region.Contains(box); });
  bool merged_any = true;
  while (merged_any) {
    merged_any = false;
    for (size_t i = 0; i < list.size(); ++i) {
      Box merged;
      if (TryMergeBoxes(region, list[i], &merged)) {
        region = std::move(merged);
        list.erase(list.begin() + static_cast<ptrdiff_t>(i));
        merged_any = true;
        break;
      }
    }
  }
  // Merging may have grown the region past boxes it now subsumes.
  std::erase_if(list, [&](const Box& box) { return region.Contains(box); });
  list.push_back(std::move(region));
}

std::pair<size_t, size_t> SemanticStore::PostingRun::Range(int64_t lo,
                                                           int64_t hi) const {
  // Codes are distinct integers, so at most hi - lo + 1 of them follow
  // `first`: callers pass narrow ranges, and a short forward scan beats a
  // second binary search.
  const size_t first = static_cast<size_t>(
      std::lower_bound(codes.begin(), codes.end(), lo) - codes.begin());
  size_t last = first;
  while (last < codes.size() && codes[last] <= hi) ++last;
  return {first, last};
}

std::shared_ptr<const SemanticStore::PostingRun>
SemanticStore::PostingRun::FromSorted(
    std::span<const std::pair<int64_t, uint32_t>> pairs) {
  auto run = std::make_shared<PostingRun>();
  run->indices.reserve(pairs.size());
  for (const auto& [code, index] : pairs) {
    if (run->codes.empty() || run->codes.back() != code) {
      run->codes.push_back(code);
      run->offsets.push_back(static_cast<uint32_t>(run->indices.size()));
    }
    run->indices.push_back(index);
  }
  run->offsets.push_back(static_cast<uint32_t>(run->indices.size()));
  return run;
}

std::shared_ptr<const SemanticStore::PostingRun>
SemanticStore::PostingRun::Merge(const PostingRun& older,
                                 const PostingRun& newer) {
  auto run = std::make_shared<PostingRun>();
  run->codes.reserve(older.codes.size() + newer.codes.size());
  run->offsets.reserve(older.codes.size() + newer.codes.size() + 1);
  run->indices.reserve(older.indices.size() + newer.indices.size());
  const auto take = [&](const PostingRun& from, size_t k) {
    run->indices.insert(run->indices.end(),
                        from.indices.begin() + from.offsets[k],
                        from.indices.begin() + from.offsets[k + 1]);
  };
  size_t a = 0, b = 0;
  while (a < older.codes.size() || b < newer.codes.size()) {
    const bool from_older =
        b == newer.codes.size() ||
        (a < older.codes.size() && older.codes[a] <= newer.codes[b]);
    const int64_t code = from_older ? older.codes[a] : newer.codes[b];
    run->codes.push_back(code);
    run->offsets.push_back(static_cast<uint32_t>(run->indices.size()));
    if (a < older.codes.size() && older.codes[a] == code) take(older, a++);
    if (b < newer.codes.size() && newer.codes[b] == code) take(newer, b++);
  }
  run->offsets.push_back(static_cast<uint32_t>(run->indices.size()));
  return run;
}

void SemanticStore::AddRun(PostingRuns* runs,
                           std::shared_ptr<const PostingRun> run) {
  runs->push_back(std::move(run));
  while (runs->size() >= 2 && (*runs)[runs->size() - 2]->indices.size() <=
                                  2 * runs->back()->indices.size()) {
    std::shared_ptr<const PostingRun> merged =
        PostingRun::Merge(*(*runs)[runs->size() - 2], *runs->back());
    runs->pop_back();
    runs->back() = std::move(merged);
  }
}

bool SemanticStore::IsPooled(const TableData& data,
                             std::span<const int64_t> point, const Row& row) {
  const auto same = [&](size_t i) {
    const std::span<const int64_t> pooled = data.PooledPoint(i);
    return std::equal(pooled.begin(), pooled.end(), point.begin()) &&
           data.PooledRow(i) == row;
  };
  // A pooled copy of `row` is posted under every one of its coordinates, so
  // the smallest posting of its point decides (an empty one on any posted
  // dimension means absent).
  size_t best_dim = data.postings.size();
  size_t best_count = std::numeric_limits<size_t>::max();
  for (size_t d = 0; d < data.postings.size(); ++d) {
    if (data.dim_posted[d] == 0) continue;
    size_t count = 0;
    for (const auto& run : data.postings[d]) {
      count += run->Count(run->Range(point[d], point[d]));
    }
    if (count == 0) return false;
    if (count < best_count) {
      best_count = count;
      best_dim = d;
    }
  }
  if (best_dim == data.postings.size()) {  // no posted dimension: scan
    for (size_t i = 0; i < data.pooled_rows; ++i) {
      if (same(i)) return true;
    }
    return false;
  }
  for (const auto& run : data.postings[best_dim]) {
    const auto [first, last] = run->Range(point[best_dim], point[best_dim]);
    for (uint32_t k = run->offsets[first]; k < run->offsets[last]; ++k) {
      if (same(run->indices[k])) return true;
    }
  }
  return false;
}

void SemanticStore::Store(const catalog::TableDef& def, Box call_region,
                          std::vector<Row> call_rows, int64_t epoch) {
  if (call_region.empty()) return;
  // The view owns the call's rows; the pool points into it.
  const auto view = std::make_shared<const StoredView>(
      StoredView{std::move(call_region), std::move(call_rows), epoch});
  const Box& region = view->region;
  const std::vector<Row>& rows = view->rows;
  const std::shared_ptr<TableCell> cell = cells_.GetOrCreate(def.name);
  std::lock_guard<std::mutex> lock(cell->write_mutex);

  const std::shared_ptr<const TableData> old = cell->data.Load();
  // Shares row chunks, posting runs and stray points with `old`.
  auto next = std::make_shared<TableData>(*old);

  const std::vector<size_t> dims = def.ConstrainableColumns();
  const size_t num_dims = dims.size();
  // Coverage-guided dedup. A pooled point lies in the region of the call
  // that pooled it, hence in the old coverage, or is a stray point. A row
  // whose point lies inside `region` can therefore already be pooled only
  // if the point lies in an old coverage box overlapping `region` or is a
  // stray point inside `region`; only those rows, and rows outside
  // `region`, are probed. A call disjoint from the coverage probes nothing.
  std::vector<Box> probe_boxes;
  for (const Box& box : old->coverage) {
    if (box.Overlaps(region)) probe_boxes.push_back(box);
  }
  if (old->stray_points != nullptr) {
    const std::vector<int64_t>& strays = *old->stray_points;
    for (size_t i = 0; i < strays.size(); i += num_dims) {
      const std::span<const int64_t> stray(strays.data() + i, num_dims);
      if (!region.Contains(stray)) continue;
      Box point_box = region;
      for (size_t d = 0; d < num_dims; ++d) {
        point_box.dim(d) = Interval::Point(stray[d]);
      }
      probe_boxes.push_back(std::move(point_box));
    }
  }
  const auto may_be_pooled = [&](std::span<const int64_t> point) {
    if (!region.Contains(point)) return true;
    for (const Box& box : probe_boxes) {
      if (box.Contains(point)) return true;
    }
    return false;
  };

  AddCoverage(&next->coverage, region);
  if (next->domain_volume == 0) next->domain_volume = DomainVolume(def);
  for (const Row& row : rows) next->approx_bytes += ApproxRowBytes(row);
  if (next->views.empty()) {
    next->min_epoch = epoch;
    next->max_epoch = epoch;
  } else {
    next->min_epoch = std::min(next->min_epoch, epoch);
    next->max_epoch = std::max(next->max_epoch, epoch);
  }
  if (next->postings.empty()) {
    next->num_dims = num_dims;
    next->postings.resize(num_dims);
    next->dim_posted.resize(num_dims);
    for (size_t d = 0; d < num_dims; ++d) {
      next->dim_posted[d] =
          def.columns[dims[d]].domain.ToInterval().Width() > 1 ? 1 : 0;
    }
  }

  // Duplicates within the call: open-addressing set of positions in `rows`
  // (1 + position; 0 is free) of the first copy of each encodable row,
  // hashed by the row's lattice point (equal rows have equal points) and
  // compared in full. Rows that share a point share one probe sequence.
  const size_t num_slots = std::bit_ceil(2 * rows.size() + 2);
  std::vector<uint32_t> slots(num_slots, 0);
  const auto first_in_call = [&](uint32_t pos,
                                 std::span<const int64_t> point) {
    uint64_t hash = num_dims;
    for (const int64_t code : point) {
      hash = common::SplitMix64(hash ^ static_cast<uint64_t>(code));
    }
    size_t s = hash & (num_slots - 1);
    for (; slots[s] != 0; s = (s + 1) & (num_slots - 1)) {
      if (rows[slots[s] - 1] == rows[pos]) return false;
    }
    slots[s] = pos + 1;
    return true;
  };

  // The open (non-full) tail chunk may be referenced by the previous
  // snapshot, so appends go to a private copy of it (row pointers and
  // points only); full chunks are shared between snapshots untouched.
  std::shared_ptr<RowChunk> open;
  if (!next->chunks.empty() && next->chunks.back()->rows.size() < kRowChunk) {
    open = std::make_shared<RowChunk>(*next->chunks.back());
    open->rows.reserve(kRowChunk);
    open->points.reserve(kRowChunk * num_dims);
    next->chunks.back() = open;
  }
  const size_t first_new = next->pooled_rows;
  std::vector<int64_t> new_strays;
  std::vector<int64_t> point(num_dims);
  for (uint32_t pos = 0; pos < rows.size(); ++pos) {
    const Row& row = rows[pos];
    if (!EncodePoint(def, dims, row, point.data())) {
      continue;  // outside domains: unreachable anyway
    }
    if (!first_in_call(pos, point)) continue;
    if (may_be_pooled(point) && IsPooled(*old, point, row)) continue;
    if (open == nullptr || open->rows.size() >= kRowChunk) {
      open = std::make_shared<RowChunk>();
      open->rows.reserve(kRowChunk);
      open->points.reserve(kRowChunk * num_dims);
      next->chunks.push_back(open);
    }
    open->rows.push_back(&row);
    open->points.insert(open->points.end(), point.begin(), point.end());
    ++next->pooled_rows;
    if (!region.Contains(point)) {
      new_strays.insert(new_strays.end(), point.begin(), point.end());
    }
  }
  if (!new_strays.empty()) {
    auto strays = std::make_shared<std::vector<int64_t>>();
    if (old->stray_points != nullptr) *strays = *old->stray_points;
    strays->insert(strays->end(), new_strays.begin(), new_strays.end());
    next->stray_points = std::move(strays);
  }

  // Post the call's new rows: one sorted run per posted dimension.
  if (next->pooled_rows > first_new) {
    std::vector<std::pair<int64_t, uint32_t>> pairs;
    pairs.reserve(next->pooled_rows - first_new);
    for (size_t d = 0; d < num_dims; ++d) {
      if (next->dim_posted[d] == 0) continue;
      pairs.clear();
      for (size_t i = first_new; i < next->pooled_rows; ++i) {
        pairs.emplace_back(next->PooledPoint(i)[d], static_cast<uint32_t>(i));
      }
      std::sort(pairs.begin(), pairs.end());
      AddRun(&next->postings[d], PostingRun::FromSorted(pairs));
    }
  }

  next->views.push_back(view);
  cell->data.Store(std::move(next));
  version_.fetch_add(1, std::memory_order_release);
}

std::vector<StoredView> SemanticStore::ViewsOf(
    const std::string& table) const {
  const std::shared_ptr<TableCell> cell = cells_.Find(table);
  if (cell == nullptr) return {};
  const std::shared_ptr<const TableData> data = cell->data.Load();
  std::vector<StoredView> out;
  out.reserve(data->views.size());
  for (const auto& view : data->views) out.push_back(*view);
  return out;
}

std::vector<Box> SemanticStore::CoveredRegionsOf(const TableData& data,
                                                 int64_t min_epoch) {
  // Weak consistency (every view usable): serve the normalized coverage.
  if (min_epoch == std::numeric_limits<int64_t>::min()) {
    return data.coverage;
  }
  std::vector<Box> out;
  out.reserve(data.views.size());
  for (const auto& view : data.views) {
    if (view->epoch >= min_epoch) out.push_back(view->region);
  }
  return out;
}

bool SemanticStore::IsCoveredUnder(const TableData& data, const Box& region,
                                   int64_t min_epoch) {
  if (min_epoch == std::numeric_limits<int64_t>::min()) {
    return IsCovered(region, data.coverage);
  }
  return IsCovered(region, CoveredRegionsOf(data, min_epoch));
}

void SemanticStore::CountProbe(const TableCell* cell, bool hit) const {
  probes_.fetch_add(1, std::memory_order_relaxed);
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  if (cell != nullptr) {
    cell->probes.fetch_add(1, std::memory_order_relaxed);
    (hit ? cell->hits : cell->misses)
        .fetch_add(1, std::memory_order_relaxed);
  }
  obs::Counter* metric = (hit ? hits_metric_ : misses_metric_)
                             .load(std::memory_order_relaxed);
  if (metric != nullptr) metric->Add(1);
}

std::vector<Box> SemanticStore::CoveredRegions(const std::string& table,
                                               int64_t min_epoch) const {
  return Pin(table).CoveredRegions(min_epoch);
}

bool SemanticStore::Covers(const catalog::TableDef& def, const Box& region,
                           int64_t min_epoch) const {
  return Pin(def.name).Covers(region, min_epoch);
}

SemanticStore::TableSnapshot SemanticStore::Pin(
    const std::string& table) const {
  return TableSnapshot(this, cells_.Find(table));
}

std::vector<Box> SemanticStore::TableSnapshot::CoveredRegions(
    int64_t min_epoch) const {
  if (data_ == nullptr) return {};
  return CoveredRegionsOf(*data_, min_epoch);
}

bool SemanticStore::TableSnapshot::Covers(const Box& region,
                                          int64_t min_epoch) const {
  if (region.empty()) {
    store_->CountProbe(nullptr, /*hit=*/true);
    return true;
  }
  const bool covered =
      data_ != nullptr && IsCoveredUnder(*data_, region, min_epoch);
  store_->CountProbe(cell_.get(), covered);
  return covered;
}

std::vector<const Row*> SemanticStore::TableSnapshot::RowsInRegion(
    const catalog::TableDef& def, const Box& region, int64_t min_epoch) const {
  std::vector<const Row*> out;
  if (data_ != nullptr && !region.empty()) {
    out = RowsIn(*data_, def, region, min_epoch);
  }
  store_->CountProbe(region.empty() ? nullptr : cell_.get(),
                     /*hit=*/!out.empty());
  return out;
}

std::vector<const Row*> SemanticStore::RowsIn(const TableData& data,
                                              const catalog::TableDef& def,
                                              const Box& region,
                                              int64_t min_epoch) {
  std::vector<const Row*> out;

  if (min_epoch == std::numeric_limits<int64_t>::min()) {
    // Weak consistency: serve from the deduplicated pool. Use the postings
    // of the most selective narrow dimension when one exists — selectivity
    // is the ACTUAL candidate count on that dimension's postings, not the
    // interval width: a one-value categorical dimension ("Country = 'US'")
    // has width 1 but may post every pooled row, while a four-station slab
    // posts a handful.
    size_t best_dim = region.num_dims();
    size_t best_candidates = std::numeric_limits<size_t>::max();
    for (size_t d = 0; d < region.num_dims() && d < data.postings.size();
         ++d) {
      if (data.dim_posted[d] == 0) continue;  // single-point domain: no index
      if (region.dim(d).Width() > 64) continue;  // too wide to enumerate
      size_t candidates = 0;
      for (const auto& run : data.postings[d]) {
        candidates += run->Count(run->Range(region.dim(d).lo,
                                            region.dim(d).hi));
      }
      if (candidates < best_candidates) {
        best_candidates = candidates;
        best_dim = d;
      }
    }
    const bool use_postings = best_dim < region.num_dims();
    if (use_postings) {
      // Code-major, and within a code the runs oldest first: pool indices
      // come out ascending within each code. Only runs holding some code
      // of the range take part.
      struct Cursor {
        const PostingRun* run;
        size_t next, end;  // positions in run->codes
      };
      std::vector<Cursor> cursors;
      const Interval& span = region.dim(best_dim);
      for (const auto& run : data.postings[best_dim]) {
        const auto [first, last] = run->Range(span.lo, span.hi);
        if (first < last) cursors.push_back({run.get(), first, last});
      }
      out.reserve(best_candidates);
      const auto emit = [&](const PostingRun& run, size_t first, size_t last) {
        for (uint32_t j = run.offsets[first]; j < run.offsets[last]; ++j) {
          const uint32_t i = run.indices[j];
          if (region.Contains(data.PooledPoint(i))) {
            out.push_back(&data.PooledRow(i));
          }
        }
      };
      while (!cursors.empty()) {
        if (cursors.size() == 1) {  // the rest comes from one run, in order
          emit(*cursors[0].run, cursors[0].next, cursors[0].end);
          break;
        }
        int64_t code = std::numeric_limits<int64_t>::max();
        for (const Cursor& c : cursors) {
          code = std::min(code, c.run->codes[c.next]);
        }
        for (Cursor& c : cursors) {
          if (c.run->codes[c.next] != code) continue;
          emit(*c.run, c.next, c.next + 1);
          ++c.next;
        }
        std::erase_if(cursors, [](const Cursor& c) { return c.next == c.end; });
      }
    } else {
      out.reserve(data.pooled_rows);
      for (size_t i = 0; i < data.pooled_rows; ++i) {
        if (region.Contains(data.PooledPoint(i))) {
          out.push_back(&data.PooledRow(i));
        }
      }
    }
    return out;
  }

  // Epoch-filtered (X-week consistency) path: scan usable views newest-
  // first, deduplicating identical tuples.
  std::vector<const StoredView*> usable;
  usable.reserve(data.views.size());
  size_t candidate_rows = 0;
  for (const auto& view : data.views) {
    if (view->epoch >= min_epoch && view->region.Overlaps(region)) {
      usable.push_back(view.get());
      candidate_rows += view->rows.size();
    }
  }
  std::stable_sort(usable.begin(), usable.end(),
                   [](const StoredView* a, const StoredView* b) {
                     return a->epoch > b->epoch;
                   });
  // Dedup hashes the referenced rows in place: nothing is copied.
  std::unordered_set<const Row*, RowPtrHasher, RowPtrEqual> seen;
  seen.reserve(candidate_rows);
  out.reserve(candidate_rows);
  const std::vector<size_t> dims = def.ConstrainableColumns();
  std::vector<int64_t> point(dims.size());
  for (const StoredView* view : usable) {
    for (const Row& row : view->rows) {
      if (!EncodePoint(def, dims, row, point.data()) ||
          !region.Contains(point)) {
        continue;
      }
      if (seen.insert(&row).second) out.push_back(&row);
    }
  }
  return out;
}

size_t SemanticStore::NumViews(const std::string& table) const {
  const std::shared_ptr<TableCell> cell = cells_.Find(table);
  if (cell == nullptr) return 0;
  return cell->data.Load()->views.size();
}

size_t SemanticStore::TotalViews() const {
  size_t total = 0;
  cells_.ForEach([&](const std::string&, const TableCell& cell) {
    total += cell.data.Load()->views.size();
  });
  return total;
}

size_t SemanticStore::TotalStoredRows() const {
  size_t total = 0;
  cells_.ForEach([&](const std::string&, const TableCell& cell) {
    const std::shared_ptr<const TableData> data = cell.data.Load();
    for (const auto& view : data->views) total += view->rows.size();
  });
  return total;
}

std::vector<std::string> SemanticStore::TableNames() const {
  std::vector<std::string> names;
  cells_.ForEach([&](const std::string& name, const TableCell&) {
    names.push_back(name);
  });
  std::sort(names.begin(), names.end());
  return names;
}

void SemanticStore::DropTable(const std::string& table) {
  const std::shared_ptr<TableCell> cell = cells_.Find(table);
  if (cell == nullptr) return;
  int64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(cell->write_mutex);
    const std::shared_ptr<const TableData> old = cell->data.Load();
    dropped = static_cast<int64_t>(old->views.size());
    if (dropped == 0 && old->pooled_rows == 0) return;
    cell->data.Store(std::make_shared<const TableData>());
  }
  version_.fetch_add(1, std::memory_order_release);
  if (dropped > 0) {
    evictions_.fetch_add(dropped, std::memory_order_relaxed);
    obs::Counter* metric = evictions_metric_.load(std::memory_order_relaxed);
    if (metric != nullptr) metric->Add(dropped);
  }
}

void SemanticStore::Clear() {
  int64_t dropped = 0;
  cells_.ForEach([&](const std::string&, const TableCell& cell) {
    dropped += static_cast<int64_t>(cell.data.Load()->views.size());
  });
  cells_.Clear();
  version_.fetch_add(1, std::memory_order_release);
  if (dropped > 0) {
    evictions_.fetch_add(dropped, std::memory_order_relaxed);
    obs::Counter* metric = evictions_metric_.load(std::memory_order_relaxed);
    if (metric != nullptr) metric->Add(dropped);
  }
}

void SemanticStore::BindMetrics(obs::Counter* hits, obs::Counter* misses,
                                obs::Counter* evictions) {
  hits_metric_.store(hits, std::memory_order_relaxed);
  misses_metric_.store(misses, std::memory_order_relaxed);
  evictions_metric_.store(evictions, std::memory_order_relaxed);
}

std::vector<StoreTableStats> SemanticStore::SnapshotStats() const {
  std::vector<StoreTableStats> out;
  cells_.ForEach([&](const std::string& table, const TableCell& cell) {
    StoreTableStats stats;
    stats.table = table;
    stats.probes = cell.probes.load(std::memory_order_relaxed);
    stats.hits = cell.hits.load(std::memory_order_relaxed);
    stats.misses = cell.misses.load(std::memory_order_relaxed);
    const std::shared_ptr<const TableData> data = cell.data.Load();
    stats.views = data->views.size();
    stats.coverage_boxes = data->coverage.size();
    stats.pooled_rows = data->pooled_rows;
    stats.approx_bytes = data->approx_bytes;
    stats.min_epoch = data->min_epoch;
    stats.max_epoch = data->max_epoch;
    if (data->domain_volume > 0) {
      double covered = 0.0;
      for (const Box& box : data->coverage) {
        covered += static_cast<double>(box.Volume());
      }
      stats.covered_fraction =
          std::min(1.0, covered / static_cast<double>(data->domain_volume));
    }
    out.push_back(std::move(stats));
  });
  std::sort(out.begin(), out.end(),
            [](const StoreTableStats& a, const StoreTableStats& b) {
              return a.table < b.table;
            });
  return out;
}

std::string SemanticStore::StatsJson() const {
  const std::vector<StoreTableStats> tables = SnapshotStats();
  std::ostringstream os;
  os << "{\"version\":" << version() << ",\"probes\":" << TotalProbes()
     << ",\"hits\":" << TotalHits() << ",\"misses\":" << TotalMisses()
     << ",\"evictions\":" << TotalEvictions() << ",\"tables\":[";
  bool first = true;
  for (const StoreTableStats& t : tables) {
    if (!first) os << ",";
    first = false;
    os << "{\"table\":\"" << t.table << "\",\"views\":" << t.views
       << ",\"coverage_boxes\":" << t.coverage_boxes
       << ",\"pooled_rows\":" << t.pooled_rows
       << ",\"approx_bytes\":" << t.approx_bytes << ",\"covered_fraction\":";
    if (t.covered_fraction < 0) {
      os << "null";
    } else {
      os << t.covered_fraction;
    }
    os << ",\"probes\":" << t.probes << ",\"hits\":" << t.hits
       << ",\"misses\":" << t.misses << ",\"min_epoch\":" << t.min_epoch
       << ",\"max_epoch\":" << t.max_epoch << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace payless::semstore
