// The scalar value type flowing through PayLess: tuples in the local DBMS,
// records returned by data-market REST calls, literals in SQL predicates,
// and binding values for bind joins all carry `Value`s.
#ifndef PAYLESS_COMMON_VALUE_H_
#define PAYLESS_COMMON_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

namespace payless {

/// Column / value type. Dates are modelled as kInt64 in YYYYMMDD form, the
/// encoding Windows Azure Marketplace uses for range-bindable date attributes.
enum class ValueType {
  kInt64,
  kDouble,
  kString,
};

const char* ValueTypeName(ValueType type);

/// A dynamically typed scalar. Nullable (SQL NULL) via the monostate
/// alternative; NULL compares less than every non-NULL value so sorted
/// operators have a total order.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(data_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(data_); }
  bool is_double() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }

  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Numeric view: int64 and double both convert; asserts otherwise.
  double AsNumeric() const;

  ValueType type() const;

  /// Three-way comparison with NULL < everything; numeric types compare by
  /// numeric value, so Value(1) == Value(1.0).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Hash compatible with operator== (numeric cross-type equality included).
  size_t Hash() const;

  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

using Row = std::vector<Value>;

/// Hash of a full row, for duplicate elimination and hash joins.
size_t HashRow(const Row& row);

std::string RowToString(const Row& row);

struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

struct RowHasher {
  size_t operator()(const Row& r) const { return HashRow(r); }
};

/// Hash and equality of rows held by pointer, compared by value: duplicate
/// elimination over referenced rows without copying them.
struct RowPtrHasher {
  size_t operator()(const Row* r) const { return HashRow(*r); }
};
struct RowPtrEqual {
  bool operator()(const Row* a, const Row* b) const { return *a == *b; }
};

}  // namespace payless

#endif  // PAYLESS_COMMON_VALUE_H_
