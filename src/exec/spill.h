#ifndef OD_EXEC_SPILL_H_
#define OD_EXEC_SPILL_H_

#include <cstdint>
#include <fstream>
#include <string>

#include "engine/table.h"
#include "exec/batch.h"

namespace od {
namespace exec {

/// A uniquely named temp file that is removed when the owner goes away —
/// spilled sort runs must disappear on success, on a mid-pipeline
/// exception, and on early exit (e.g. a Limit that stops pulling), so
/// cleanup lives in a destructor rather than on any happy path.
/// Movable, not copyable.
class SpillFile {
 public:
  /// Creates a fresh file under `dir` (empty: the system temp directory).
  explicit SpillFile(const std::string& dir = "");
  ~SpillFile();

  SpillFile(SpillFile&& other) noexcept;
  SpillFile& operator=(SpillFile&& other) noexcept;
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;  // empty after being moved from
};

/// On-disk format of a spilled run (see docs/exec.md): a fixed header
/// (magic, column count, per-column type tags), then a sequence of row
/// chunks, each `int64 rows` followed by the chunk's columns back to back
/// (int64/double columns as raw arrays, strings length-prefixed). Chunked
/// layout keeps the merge phase streaming: a reader holds one chunk per
/// run, never a whole run.

/// Writes `run` into `file` in chunks of `chunk_rows`. The run is finished
/// and self-contained after this returns (the stream is flushed + closed).
/// Returns the bytes written (header + chunks), for spill accounting.
int64_t WriteRun(const engine::Table& run, const SpillFile& file,
                 int64_t chunk_rows);

/// Streams a spilled run back chunk by chunk.
class RunReader {
 public:
  explicit RunReader(const SpillFile& file);

  const engine::Schema& schema() const { return schema_; }

  /// Fills `out` with the next chunk; false at end of run.
  bool NextChunk(Batch* out);

 private:
  std::ifstream in_;
  engine::Schema schema_;  // anonymous columns, types only
  bool done_ = false;
};

}  // namespace exec
}  // namespace od

#endif  // OD_EXEC_SPILL_H_
