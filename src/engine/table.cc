#include "engine/table.h"

#include <cassert>

namespace od {
namespace engine {

ColumnId Schema::Find(const std::string& name) const {
  for (int i = 0; i < num_columns(); ++i) {
    if (cols_[i].name == name) return i;
  }
  return -1;
}

int64_t Column::size() const {
  switch (type_) {
    case DataType::kInt64: return static_cast<int64_t>(ints_.size());
    case DataType::kDouble: return static_cast<int64_t>(doubles_.size());
    case DataType::kString: return static_cast<int64_t>(strings_.size());
  }
  return 0;
}

void Column::Append(const Value& v) {
  switch (type_) {
    case DataType::kInt64:
      AppendInt(v.AsInt());
      break;
    case DataType::kDouble:
      AppendDouble(v.AsDouble());
      break;
    case DataType::kString:
      AppendString(v.AsString());
      break;
  }
}

void Column::AppendFrom(const Column& src, int64_t row) {
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(src.ints_[row]);
      break;
    case DataType::kDouble:
      doubles_.push_back(src.doubles_[row]);
      break;
    case DataType::kString:
      strings_.push_back(src.strings_[row]);
      break;
  }
}

void Column::AppendRange(const Column& src, int64_t begin, int64_t end) {
  switch (type_) {
    case DataType::kInt64:
      ints_.insert(ints_.end(), src.ints_.begin() + begin,
                   src.ints_.begin() + end);
      break;
    case DataType::kDouble:
      doubles_.insert(doubles_.end(), src.doubles_.begin() + begin,
                      src.doubles_.begin() + end);
      break;
    case DataType::kString:
      strings_.insert(strings_.end(), src.strings_.begin() + begin,
                      src.strings_.begin() + end);
      break;
  }
}

void Column::Clear() {
  ints_.clear();
  doubles_.clear();
  strings_.clear();
}

Value Column::Get(int64_t row) const {
  switch (type_) {
    case DataType::kInt64: return Value(ints_[row]);
    case DataType::kDouble: return Value(doubles_[row]);
    case DataType::kString: return Value(strings_[row]);
  }
  return Value();
}

double Column::Numeric(int64_t row) const {
  return type_ == DataType::kInt64 ? static_cast<double>(ints_[row])
                                   : doubles_[row];
}

int Column::Compare(int64_t row, const Column& other, int64_t row2) const {
  if (type_ == DataType::kInt64 && other.type_ == DataType::kInt64) {
    const int64_t a = ints_[row];
    const int64_t b = other.ints_[row2];
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (type_ == DataType::kString && other.type_ == DataType::kString) {
    const int c = strings_[row].compare(other.strings_[row2]);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // CompareDoubles, not raw `<`: NaN must order totally (equal to other
  // NaNs, after everything else) or sort-based consumers — engine sorts,
  // discovery's swap scan — get a non-strict-weak comparator.
  return CompareDoubles(Numeric(row), other.Numeric(row2));
}

void Column::AppendKey(int64_t row, std::string* key) const {
  uint64_t fixed = 0;
  switch (type_) {
    case DataType::kInt64:
      fixed = static_cast<uint64_t>(ints_[row]);
      break;
    case DataType::kDouble:
      fixed = DoubleKey(doubles_[row]);
      break;
    case DataType::kString:
      fixed = strings_[row].size();
      break;
  }
  key->append(reinterpret_cast<const char*>(&fixed), sizeof(fixed));
  if (type_ == DataType::kString) key->append(strings_[row]);
}

void Column::Reserve(int64_t n) {
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      strings_.reserve(n);
      break;
  }
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  for (int i = 0; i < schema_.num_columns(); ++i) {
    cols_.emplace_back(schema_.col(i).type);
  }
}

void Table::AppendRow(const std::vector<Value>& row) {
  assert(static_cast<int>(row.size()) == num_columns());
  for (int i = 0; i < num_columns(); ++i) {
    cols_[i].Append(row[i]);
  }
  ++num_rows_;
}

Table Table::Gather(const std::vector<int64_t>& row_ids) const {
  Table out(schema_);
  for (int c = 0; c < num_columns(); ++c) {
    out.cols_[c].Reserve(static_cast<int64_t>(row_ids.size()));
  }
  for (int64_t id : row_ids) {
    for (int c = 0; c < num_columns(); ++c) {
      switch (cols_[c].type()) {
        case DataType::kInt64:
          out.cols_[c].AppendInt(cols_[c].Int(id));
          break;
        case DataType::kDouble:
          out.cols_[c].AppendDouble(cols_[c].Double(id));
          break;
        case DataType::kString:
          out.cols_[c].AppendString(cols_[c].Str(id));
          break;
      }
    }
  }
  out.num_rows_ = static_cast<int64_t>(row_ids.size());
  return out;
}

int Table::CompareRows(int64_t r1, int64_t r2,
                       const std::vector<ColumnId>& key) const {
  for (ColumnId c : key) {
    const int cmp = cols_[c].Compare(r1, cols_[c], r2);
    if (cmp != 0) return cmp;
  }
  return 0;
}

std::string Table::ToString(int64_t max_rows) const {
  std::string out;
  for (int c = 0; c < num_columns(); ++c) {
    if (c > 0) out += "\t";
    out += schema_.col(c).name;
  }
  out += "\n";
  const int64_t n = std::min(max_rows, num_rows_);
  for (int64_t i = 0; i < n; ++i) {
    for (int c = 0; c < num_columns(); ++c) {
      if (c > 0) out += "\t";
      out += cols_[c].Get(i).ToString();
    }
    out += "\n";
  }
  if (n < num_rows_) {
    out += "... (" + std::to_string(num_rows_ - n) + " more rows)\n";
  }
  return out;
}

}  // namespace engine
}  // namespace od
