#include "common/geometry.h"

#include <cassert>
#include <limits>
#include <sstream>

namespace payless {

int64_t Interval::Width() const {
  if (empty()) return 0;
  // hi - lo + 1 can overflow for domains like [INT64_MIN, INT64_MAX]; detect
  // via unsigned arithmetic and saturate.
  const uint64_t w = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (w >= static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return std::numeric_limits<int64_t>::max();
  }
  return static_cast<int64_t>(w) + 1;
}

std::string Interval::ToString() const {
  if (empty()) return "[empty]";
  std::ostringstream os;
  os << "[" << lo << ", " << hi << "]";
  return os.str();
}

bool Box::empty() const {
  for (const Interval& iv : dims_) {
    if (iv.empty()) return true;
  }
  return false;
}

bool Box::Contains(const Box& other) const {
  assert(num_dims() == other.num_dims());
  if (other.empty()) return true;
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (!dims_[i].Contains(other.dims_[i])) return false;
  }
  return true;
}

bool Box::Overlaps(const Box& other) const {
  assert(num_dims() == other.num_dims());
  if (dims_.empty()) return true;  // zero-dimensional unit regions overlap
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (!dims_[i].Overlaps(other.dims_[i])) return false;
  }
  return true;
}

Box Box::Intersect(const Box& other) const {
  assert(num_dims() == other.num_dims());
  std::vector<Interval> out;
  out.reserve(dims_.size());
  for (size_t i = 0; i < dims_.size(); ++i) {
    out.push_back(dims_[i].Intersect(other.dims_[i]));
  }
  return Box(std::move(out));
}

int64_t Box::Volume() const {
  if (empty()) return 0;
  // Multiply with saturation; widths are >= 1 here.
  unsigned __int128 volume = 1;
  const unsigned __int128 kMax =
      static_cast<unsigned __int128>(std::numeric_limits<int64_t>::max());
  for (const Interval& iv : dims_) {
    volume *= static_cast<unsigned __int128>(iv.Width());
    if (volume >= kMax) return std::numeric_limits<int64_t>::max();
  }
  return static_cast<int64_t>(volume);
}

bool Box::operator==(const Box& other) const {
  if (num_dims() != other.num_dims()) return false;
  if (empty() || other.empty()) return empty() == other.empty();
  return dims_ == other.dims_;
}

std::string Box::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) out += " x ";
    out += dims_[i].ToString();
  }
  out += "}";
  return out;
}

std::vector<Box> SubtractBox(const Box& a, const Box& b) {
  std::vector<Box> pieces;
  if (a.empty()) return pieces;
  const Box overlap = a.Intersect(b);
  if (overlap.empty()) {
    pieces.push_back(a);
    return pieces;
  }
  // Guillotine cuts: peel off the slab below and above the overlap on each
  // dimension in turn, shrinking the remaining core to the overlap extent.
  Box core = a;
  for (size_t d = 0; d < a.num_dims(); ++d) {
    const Interval& cut = overlap.dim(d);
    const Interval& cur = core.dim(d);
    if (cur.lo < cut.lo) {
      Box below = core;
      below.dim(d) = Interval(cur.lo, cut.lo - 1);
      pieces.push_back(std::move(below));
    }
    if (cur.hi > cut.hi) {
      Box above = core;
      above.dim(d) = Interval(cut.hi + 1, cur.hi);
      pieces.push_back(std::move(above));
    }
    core.dim(d) = cut;
  }
  // `core` now equals `overlap` and is discarded (it lies inside b).
  return pieces;
}

std::vector<Box> SubtractAll(const Box& base, const std::vector<Box>& holes) {
  std::vector<Box> remaining;
  if (!base.empty()) remaining.push_back(base);
  for (const Box& hole : holes) {
    if (!hole.Overlaps(base)) continue;  // every piece lies inside `base`
    std::vector<Box> next;
    for (const Box& piece : remaining) {
      std::vector<Box> diff = SubtractBox(piece, hole);
      next.insert(next.end(), std::make_move_iterator(diff.begin()),
                  std::make_move_iterator(diff.end()));
    }
    remaining = std::move(next);
    if (remaining.empty()) break;
  }
  return remaining;
}

bool IsCovered(const Box& target, const std::vector<Box>& cover) {
  return SubtractAll(target, cover).empty();
}

}  // namespace payless
