// Integer-lattice interval / box algebra.
//
// Query footprints, stored REST-call results, histogram buckets and remainder
// queries are all axis-aligned boxes over a table's constrainable attributes.
// Numeric attributes live directly on the int64 lattice (dates as YYYYMMDD,
// ranks, keys); categorical attributes are dictionary-encoded to [0, n).
// All intervals are CLOSED: [lo, hi] contains both endpoints.
#ifndef PAYLESS_COMMON_GEOMETRY_H_
#define PAYLESS_COMMON_GEOMETRY_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace payless {

/// Closed integer interval [lo, hi]. Empty iff lo > hi.
struct Interval {
  int64_t lo = 0;
  int64_t hi = -1;  // default-constructed interval is empty

  Interval() = default;
  Interval(int64_t l, int64_t h) : lo(l), hi(h) {}

  static Interval Point(int64_t v) { return Interval(v, v); }
  static Interval Empty() { return Interval(0, -1); }

  bool empty() const { return lo > hi; }
  bool Contains(int64_t v) const { return lo <= v && v <= hi; }
  bool Contains(const Interval& other) const {
    return other.empty() || (lo <= other.lo && other.hi <= hi);
  }
  bool Overlaps(const Interval& other) const {
    return !empty() && !other.empty() && lo <= other.hi && other.lo <= hi;
  }

  Interval Intersect(const Interval& other) const {
    return Interval(lo > other.lo ? lo : other.lo,
                    hi < other.hi ? hi : other.hi);
  }

  /// Number of lattice points; 0 when empty. Saturates at INT64_MAX.
  int64_t Width() const;

  bool operator==(const Interval& other) const {
    if (empty() && other.empty()) return true;
    return lo == other.lo && hi == other.hi;
  }

  std::string ToString() const;
};

/// Axis-aligned box: one interval per dimension. A zero-dimensional box is
/// the unit region (non-empty, volume 1) — it arises for tables whose access
/// pattern has no constrainable attribute.
class Box {
 public:
  Box() = default;
  explicit Box(std::vector<Interval> dims) : dims_(std::move(dims)) {}

  size_t num_dims() const { return dims_.size(); }
  const Interval& dim(size_t i) const { return dims_[i]; }
  Interval& dim(size_t i) { return dims_[i]; }
  const std::vector<Interval>& dims() const { return dims_; }

  /// Empty iff any dimension's interval is empty.
  bool empty() const;

  bool Contains(const Box& other) const;
  /// `point` has one coordinate per dimension. Inline: the semantic store
  /// tests thousands of pooled points per read with it.
  bool Contains(std::span<const int64_t> point) const {
    assert(num_dims() == point.size());
    for (size_t i = 0; i < dims_.size(); ++i) {
      if (!dims_[i].Contains(point[i])) return false;
    }
    return true;
  }
  bool Overlaps(const Box& other) const;

  /// Component-wise intersection (possibly empty).
  Box Intersect(const Box& other) const;

  /// Lattice-point count (product of widths). Saturates at INT64_MAX; 0 when
  /// empty; 1 for a zero-dimensional box.
  int64_t Volume() const;

  bool operator==(const Box& other) const;

  std::string ToString() const;

 private:
  std::vector<Interval> dims_;
};

/// Computes `a \ b` as a set of DISJOINT boxes whose union is exactly the
/// set difference. Returns at most 2*d boxes (guillotine decomposition).
std::vector<Box> SubtractBox(const Box& a, const Box& b);

/// Computes `base \ (union of holes)` as disjoint boxes.
std::vector<Box> SubtractAll(const Box& base, const std::vector<Box>& holes);

/// True iff `cover` jointly contains every lattice point of `target`
/// (i.e. SubtractAll(target, cover) is empty).
bool IsCovered(const Box& target, const std::vector<Box>& cover);

}  // namespace payless

#endif  // PAYLESS_COMMON_GEOMETRY_H_
