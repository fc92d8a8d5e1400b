// The trace corpus: the on-disk interchange format between the trace
// factory (sca::CorpusRunner) and the attack harness (sca::DpaAnalyzer).
//
// A corpus is a few thousand to a few million power traces of the SAME
// firmware sequence, one per (plaintext, noise seed) variant, each a
// fixed-length vector of per-cycle energy samples over the crypto ROI.
// Requirements that shaped the format:
//
//  * Out-of-core on both ends. The writer streams — one encoded trace
//    appended at a time, nothing buffered beyond the current record —
//    and the reader decodes one trace per next() call, so corpora far
//    larger than RAM analyze in bounded memory.
//  * Compact. Samples are fixed-point (energy_fJ × quantDenom, rounded
//    to integer) and delta-coded within a trace, then zigzag-varint
//    encoded: consecutive ROI cycles carry similar energy, so most
//    deltas fit one or two bytes (~3x smaller than raw f64 vectors).
//  * Versioned and refusing. Like the ckpt snapshot format: bad magic,
//    unsupported version, truncation anywhere, payload/sample-count
//    mismatches and trailing bytes all raise CorpusError with a
//    message naming the problem — never silent garbage (the golden
//    tiny-corpus test pins the byte layout; tests/sca exercises every
//    refusal path). Lengths read from the file are checked against the
//    bytes the file still holds before anything is allocated from them.
//  * Self-describing per trace. Key, plaintext, ciphertext and the
//    noise seed travel with each trace, so an analyzer can verify its
//    leakage model against ground truth and a corpus can mix keys.
//
// Layout (all little-endian):
//   "SCTCORP\n"            8-byte magic
//   u32 format version     (kCorpusFormatVersion)
//   u32 samplesPerTrace
//   u32 quantDenom         sample_fJ = quantized / quantDenom
//   u32 reserved (0)
//   u64 traceCount         (patched by the writer on close)
//   per trace:
//     u32 key[4], u32 plaintext[2], u32 ciphertext[2], u64 noiseSeed
//     u32 payloadBytes, then that many bytes of zigzag-varint deltas
//     decoding to exactly samplesPerTrace quantized samples.
#ifndef SCT_SCA_CORPUS_H
#define SCT_SCA_CORPUS_H

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace sct::sca {

/// Any malformed, truncated or version-skewed corpus lands here — a
/// catchable error with a human-readable message, never UB.
class CorpusError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kCorpusFormatVersion = 1;

struct CorpusHeader {
  std::uint32_t samplesPerTrace = 0;
  std::uint32_t quantDenom = 64;  ///< Fixed-point denominator (fJ⁻¹).
  std::uint64_t traceCount = 0;   ///< Filled by the reader / on close.
};

/// Per-trace metadata: everything the attack needs (plaintext) plus
/// the ground truth the tests verify against (key, ciphertext, seed).
struct TraceMeta {
  std::uint32_t key[4] = {};
  std::uint32_t plaintext[2] = {};
  std::uint32_t ciphertext[2] = {};
  std::uint64_t noiseSeed = 0;
};

struct TraceRecord {
  TraceMeta meta;
  /// Quantized samples (fixed-point: value / quantDenom = energy fJ).
  std::vector<std::int64_t> samples;
};

/// Encode one trace record to the exact bytes the writer appends
/// (exposed so corpus generation workers can encode in parallel and
/// the writer can append the blobs in index order — the foundation of
/// the bit-identical-across-SCT_THREADS contract).
std::vector<std::uint8_t> encodeTrace(const TraceRecord& record,
                                      std::uint32_t samplesPerTrace);

/// Streaming corpus writer. Writes the header on open (trace count 0),
/// appends traces one at a time, and patches the count on close().
class TraceCorpusWriter {
 public:
  TraceCorpusWriter(const std::string& path, const CorpusHeader& header);
  ~TraceCorpusWriter();

  TraceCorpusWriter(const TraceCorpusWriter&) = delete;
  TraceCorpusWriter& operator=(const TraceCorpusWriter&) = delete;

  void append(const TraceRecord& record);
  /// Append a blob produced by encodeTrace (worker-encoded path).
  void appendEncoded(const std::vector<std::uint8_t>& blob);

  /// Patch the trace count into the header and close the file.
  /// Idempotent; also run by the destructor.
  void close();

  std::uint64_t tracesWritten() const { return traces_; }
  std::uint64_t bytesWritten() const { return bytes_; }

 private:
  std::ofstream out_;
  std::string path_;
  CorpusHeader header_;
  std::uint64_t traces_ = 0;
  std::uint64_t bytes_ = 0;
  bool open_ = false;
};

/// Chunk-reading corpus decoder: one trace per next() call, bounded
/// memory regardless of corpus size.
class TraceCorpusReader {
 public:
  explicit TraceCorpusReader(const std::string& path);

  const CorpusHeader& header() const { return header_; }

  /// Decode the next trace into `out`. Returns false exactly once,
  /// after traceCount traces — at which point the file must end
  /// (trailing bytes are refused).
  bool next(TraceRecord& out);

  std::uint64_t tracesRead() const { return read_; }

 private:
  std::ifstream in_;
  std::string path_;
  CorpusHeader header_;
  std::uint64_t read_ = 0;
  /// File bytes not yet consumed: every length read from the file is
  /// checked against it before anything is sized from that length.
  std::uint64_t remaining_ = 0;
};

} // namespace sct::sca

#endif // SCT_SCA_CORPUS_H
