// Streaming CSV ingestion (DESIGN.md section 14).
//
// Reading a file through std::getline serializes disk IO behind parsing
// and allocates a std::string per cell; for GB-scale counter files that is
// the ingestion bottleneck. This module supplies the
// fast-cpp-csv-parser-style pipeline every core/io.cpp CSV reader uses:
//
//   * ChunkSource — reads fixed-size chunks into a ring of reusable
//     buffers (mem::Scratch), optionally on a dedicated IO thread so disk
//     reads overlap parsing. Chunks are handed to the consumer strictly in
//     file order, so the pipeline is deterministic regardless of thread
//     interleaving.
//   * CsvStream — frames lines across chunk boundaries (a carry buffer
//     holds the partial tail of a chunk), strips a leading UTF-8 BOM, and
//     scans each line's cells IN PLACE: unquoted lines become
//     string_views straight into the chunk buffer, and only lines with
//     quotes or interior CRs are materialized into one reused escape
//     buffer (CellScanner: quoted commas, doubled quotes, '\r' dropped
//     outside quotes). Errors carry a "CSV line N (byte M)" location.
//   * ColumnMap — header-driven column rearrangement: permutes a source
//     row's value cells into a caller-chosen counter order, so payloads
//     whose columns arrive shuffled (e.g. add_workload deltas) can feed a
//     fixed-layout CounterMatrix without per-row name lookups.
//
// Threading contract: CsvStream/ChunkSource must be constructed, consumed,
// and destroyed on one thread (the scratch buffers are thread-local
// pool borrows); only the internal IO thread is spawned by this module.
// No clocks, no randomness, no output ordering that depends on timing.
//
// Observability: `ingest.chunks`, `ingest.bytes`, `ingest.rows`.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <istream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "mem/workspace.hpp"

namespace perspector::ingest {

struct IngestOptions {
  /// Bytes per IO chunk. Tiny values are legal (tests shear lines across
  /// chunk boundaries with 64-byte chunks); 1 MiB is the throughput
  /// sweet spot for buffered files.
  std::size_t chunk_bytes = 1 << 20;
  /// Read chunks on a dedicated IO thread, overlapped with parsing.
  /// When false the source reads synchronously into a single buffer
  /// (same bytes, no overlap) — what in-memory payloads use.
  bool io_thread = true;
};

/// "CSV line N (byte M)" — the shared location prefix of every CSV error,
/// used by this module and by core/io.cpp.
std::string csv_location(std::size_t line_no, std::uint64_t byte_offset);

/// Splits one line (no '\n') into cells: quoted cells may hold commas and
/// doubled quotes, and '\r' is dropped outside quotes. Unquoted lines
/// become views straight into the line; others are materialized into one
/// reused buffer. The views stay valid until the next scan() and while the
/// line's bytes do.
class CellScanner {
 public:
  CellScanner() {
    cells_.reserve(16);
    spans_.reserve(16);
  }

  /// Throws std::runtime_error ("CSV line N (byte M): unterminated
  /// quote") on a quote left open at end of line.
  void scan(std::string_view line, std::size_t line_no,
            std::uint64_t byte_offset);

  const std::vector<std::string_view>& cells() const noexcept {
    return cells_;
  }

 private:
  std::string escape_;  // materialized cells of quoted/CR lines
  std::vector<std::pair<std::size_t, std::size_t>> spans_;
  std::vector<std::string_view> cells_;
};

/// Ordered chunk reader over an std::istream. next() returns the next
/// chunk of the stream (valid until the following next() call), or an
/// empty view at end of input.
class ChunkSource {
 public:
  ChunkSource(std::istream& in, const IngestOptions& options);
  ~ChunkSource();

  ChunkSource(const ChunkSource&) = delete;
  ChunkSource& operator=(const ChunkSource&) = delete;

  std::string_view next();

 private:
  static constexpr std::size_t kRingBuffers = 4;
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  void io_loop();

  std::istream& in_;
  std::size_t chunk_bytes_;
  bool threaded_;
  std::vector<std::unique_ptr<mem::Scratch<char>>> buffers_;

  // Threaded mode: the IO thread pops buffer indices from free_, fills
  // them, and pushes (index, length) onto filled_ in read order.
  std::mutex mutex_;
  std::condition_variable space_;   // IO thread waits for a free buffer
  std::condition_variable ready_;   // consumer waits for a filled chunk
  std::deque<std::size_t> free_;
  std::deque<std::pair<std::size_t, std::size_t>> filled_;
  std::size_t lent_ = kNone;  // buffer currently viewed by the consumer
  bool eof_ = false;
  bool stop_ = false;
  std::thread io_thread_;
};

/// Pull-style streaming CSV row reader (see file comment for semantics).
class CsvStream {
 public:
  explicit CsvStream(std::istream& in, const IngestOptions& options = {});
  ~CsvStream();

  CsvStream(const CsvStream&) = delete;
  CsvStream& operator=(const CsvStream&) = delete;

  /// Advances to the next non-empty line and scans its cells. Returns
  /// false at end of input. The views in cells() stay valid until the
  /// next call. Throws std::runtime_error ("CSV line N (byte M):
  /// unterminated quote") on a quote left open at end of line.
  bool next_row();

  const std::vector<std::string_view>& cells() const noexcept {
    return scanner_.cells();
  }
  /// 1-based line number of the current row.
  std::size_t line_no() const noexcept { return line_no_; }
  /// Byte offset of the current row's first byte in the input.
  std::uint64_t byte_offset() const noexcept { return line_offset_; }

 private:
  bool next_line(std::string_view& line);

  ChunkSource source_;
  std::string_view chunk_;  // unconsumed remainder of the current chunk
  std::string carry_;       // partial line accumulated across chunks
  std::string line_buf_;    // stable storage for a carry-assembled line
  CellScanner scanner_;
  std::size_t line_no_ = 0;
  std::uint64_t offset_ = 0;       // bytes consumed before the next line
  std::uint64_t line_offset_ = 0;  // byte offset of the current row
  std::uint64_t rows_seen_ = 0;    // flushed to ingest.rows on destruction
  bool eof_ = false;
};

/// Header-driven column rearrangement: maps a source row's value cells
/// (everything after the key cell at index 0) onto a target column order.
class ColumnMap {
 public:
  /// `header` is the source header row (cell 0 is the key column, e.g.
  /// "workload"); `targets` is the wanted value-column order. Throws
  /// std::invalid_argument when a target column is missing from the
  /// source or the source names a value column twice.
  ColumnMap(const std::vector<std::string_view>& header,
            std::span<const std::string> targets);

  /// Number of cells a source row must have (key cell included).
  std::size_t source_cells() const noexcept { return source_cells_; }

  /// Fills `out` with the value cells of `cells` permuted into target
  /// order (out[k] is the cell of target column k). `cells` must have
  /// exactly source_cells() entries.
  void rearrange(const std::vector<std::string_view>& cells,
                 std::vector<std::string_view>& out) const;

 private:
  std::vector<std::size_t> perm_;  // target k -> source value-cell index
  std::size_t source_cells_ = 0;
};

}  // namespace perspector::ingest
