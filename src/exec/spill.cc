#include "exec/spill.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

namespace od {
namespace exec {

namespace {

namespace fs = std::filesystem;

using engine::Column;
using engine::DataType;
using engine::Schema;
using engine::Table;

constexpr uint32_t kMagic = 0x4f445350;  // "ODSP"

std::string UniqueSpillPath(const std::string& dir) {
  static std::atomic<uint64_t> counter{0};
  const uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
  fs::path base = dir.empty() ? fs::temp_directory_path() : fs::path(dir);
  // One process owns its spill files for their whole lifetime, so a
  // process-local counter is enough to keep paths distinct; the pointer
  // of the counter disambiguates across processes sharing a directory.
  return (base / ("od_spill_" +
                  std::to_string(reinterpret_cast<uintptr_t>(&counter) %
                                 1000003) +
                  "_" + std::to_string(id) + ".run"))
      .string();
}

template <typename T>
void WriteRaw(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool ReadRaw(std::ifstream& in, T* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.gcount() == sizeof(*v);
}

void WriteColumnSlice(std::ofstream& out, const Column& col, int64_t begin,
                      int64_t end) {
  switch (col.type()) {
    case DataType::kInt64:
      for (int64_t r = begin; r < end; ++r) WriteRaw(out, col.Int(r));
      break;
    case DataType::kDouble:
      for (int64_t r = begin; r < end; ++r) WriteRaw(out, col.Double(r));
      break;
    case DataType::kString:
      for (int64_t r = begin; r < end; ++r) {
        const std::string& s = col.Str(r);
        WriteRaw(out, static_cast<uint32_t>(s.size()));
        out.write(s.data(), static_cast<std::streamsize>(s.size()));
      }
      break;
  }
}

void ReadColumnChunk(std::ifstream& in, Column* col, int64_t rows) {
  switch (col->type()) {
    case DataType::kInt64:
      for (int64_t r = 0; r < rows; ++r) {
        int64_t v;
        if (!ReadRaw(in, &v)) {
          throw std::runtime_error("exec::RunReader: truncated int chunk");
        }
        col->AppendInt(v);
      }
      break;
    case DataType::kDouble:
      for (int64_t r = 0; r < rows; ++r) {
        double v;
        if (!ReadRaw(in, &v)) {
          throw std::runtime_error("exec::RunReader: truncated double chunk");
        }
        col->AppendDouble(v);
      }
      break;
    case DataType::kString:
      for (int64_t r = 0; r < rows; ++r) {
        uint32_t len;
        if (!ReadRaw(in, &len)) {
          throw std::runtime_error("exec::RunReader: truncated string chunk");
        }
        std::string s(len, '\0');
        in.read(s.data(), len);
        if (in.gcount() != static_cast<std::streamsize>(len)) {
          throw std::runtime_error("exec::RunReader: truncated string chunk");
        }
        col->AppendString(std::move(s));
      }
      break;
  }
}

}  // namespace

SpillFile::SpillFile(const std::string& dir) : path_(UniqueSpillPath(dir)) {
  // Create the file immediately so the destructor's remove is meaningful
  // even when the writer never ran (e.g. WriteRun threw before opening).
  std::ofstream touch(path_, std::ios::binary);
  if (!touch) {
    throw std::runtime_error("exec::SpillFile: cannot create " + path_);
  }
}

SpillFile::~SpillFile() {
  if (!path_.empty()) std::remove(path_.c_str());
}

SpillFile::SpillFile(SpillFile&& other) noexcept
    : path_(std::move(other.path_)) {
  other.path_.clear();
}

SpillFile& SpillFile::operator=(SpillFile&& other) noexcept {
  if (this != &other) {
    if (!path_.empty()) std::remove(path_.c_str());
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

int64_t WriteRun(const engine::Table& run, const SpillFile& file,
                 int64_t chunk_rows) {
  std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("exec::WriteRun: cannot open " + file.path());
  }
  WriteRaw(out, kMagic);
  WriteRaw(out, static_cast<int32_t>(run.num_columns()));
  for (int c = 0; c < run.num_columns(); ++c) {
    WriteRaw(out, static_cast<int8_t>(run.schema().col(c).type));
  }
  for (int64_t pos = 0; pos < run.num_rows(); pos += chunk_rows) {
    const int64_t end = std::min(run.num_rows(), pos + chunk_rows);
    WriteRaw(out, end - pos);
    for (int c = 0; c < run.num_columns(); ++c) {
      WriteColumnSlice(out, run.col(c), pos, end);
    }
  }
  out.flush();
  if (!out) {
    throw std::runtime_error("exec::WriteRun: write failed on " +
                             file.path());
  }
  return static_cast<int64_t>(out.tellp());
}

RunReader::RunReader(const SpillFile& file)
    : in_(file.path(), std::ios::binary) {
  if (!in_) {
    throw std::runtime_error("exec::RunReader: cannot open " + file.path());
  }
  uint32_t magic;
  int32_t cols;
  if (!ReadRaw(in_, &magic) || magic != kMagic || !ReadRaw(in_, &cols)) {
    throw std::runtime_error("exec::RunReader: bad header in " + file.path());
  }
  for (int32_t c = 0; c < cols; ++c) {
    int8_t type;
    if (!ReadRaw(in_, &type)) {
      throw std::runtime_error("exec::RunReader: bad header in " +
                               file.path());
    }
    schema_.Add("c" + std::to_string(c), static_cast<DataType>(type));
  }
}

bool RunReader::NextChunk(Batch* out) {
  if (done_) return false;
  int64_t rows;
  if (!ReadRaw(in_, &rows)) {
    done_ = true;  // clean end of run
    return false;
  }
  out->Prepare(schema_);
  for (int c = 0; c < schema_.num_columns(); ++c) {
    ReadColumnChunk(in_, &out->col(c), rows);
  }
  out->SetRowCount(rows);
  return true;
}

}  // namespace exec
}  // namespace od
