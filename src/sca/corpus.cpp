#include "sca/corpus.h"

#include <cstring>
#include <iterator>

namespace sct::sca {

namespace {

constexpr char kMagic[8] = {'S', 'C', 'T', 'C', 'O', 'R', 'P', '\n'};
/// Byte offset of the u64 trace count inside the header.
constexpr std::streamoff kCountOffset = 8 + 4 * 4;
/// Header size: magic, four u32 fields, the u64 trace count.
constexpr std::size_t kHeaderBytes = 8 + 4 * 4 + 8;
/// Per-trace metadata block: key+pt+ct (8 u32), noise seed, payloadLen.
constexpr std::size_t kTraceMetaBytes = 4 * 8 + 8 + 4;
/// Longest zigzag varint a sample delta can take (ceil(64 / 7)).
constexpr std::uint64_t kMaxVarintBytes = 10;

void putU32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void putU64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void putVarint(std::vector<std::uint8_t>& b, std::uint64_t v) {
  while (v >= 0x80) {
    b.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  b.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t u) {
  return static_cast<std::int64_t>(u >> 1) ^
         -static_cast<std::int64_t>(u & 1);
}

/// Little-endian field reads over an in-memory record block.
struct BlockReader {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t pos = 0;

  void need(std::size_t k, const std::string& what) const {
    if (n - pos < k) {
      throw CorpusError("corpus trace record truncated reading " + what);
    }
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(p[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 8;
    return v;
  }
};

} // namespace

std::vector<std::uint8_t> encodeTrace(const TraceRecord& record,
                                      std::uint32_t samplesPerTrace) {
  if (record.samples.size() != samplesPerTrace) {
    throw CorpusError("trace has " + std::to_string(record.samples.size()) +
                      " samples, corpus header says " +
                      std::to_string(samplesPerTrace));
  }
  std::vector<std::uint8_t> payload;
  payload.reserve(2 * record.samples.size());
  std::int64_t prev = 0;
  for (const std::int64_t s : record.samples) {
    putVarint(payload, zigzag(s - prev));
    prev = s;
  }

  std::vector<std::uint8_t> blob;
  blob.reserve(kTraceMetaBytes + payload.size());
  for (const std::uint32_t k : record.meta.key) putU32(blob, k);
  for (const std::uint32_t p : record.meta.plaintext) putU32(blob, p);
  for (const std::uint32_t c : record.meta.ciphertext) putU32(blob, c);
  putU64(blob, record.meta.noiseSeed);
  putU32(blob, static_cast<std::uint32_t>(payload.size()));
  blob.insert(blob.end(), payload.begin(), payload.end());
  return blob;
}

// ---------------------------------------------------------------------------
// TraceCorpusWriter
// ---------------------------------------------------------------------------

TraceCorpusWriter::TraceCorpusWriter(const std::string& path,
                                     const CorpusHeader& header)
    : path_(path), header_(header) {
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) throw CorpusError("cannot open corpus for writing: " + path);
  // Built from the magic rather than inserted into an empty vector:
  // GCC 12 misreports that insert as a -Wstringop-overflow.
  std::vector<std::uint8_t> h(std::begin(kMagic), std::end(kMagic));
  putU32(h, kCorpusFormatVersion);
  putU32(h, header_.samplesPerTrace);
  putU32(h, header_.quantDenom);
  putU32(h, 0);  // reserved
  putU64(h, 0);  // trace count, patched on close
  out_.write(reinterpret_cast<const char*>(h.data()),
             static_cast<std::streamsize>(h.size()));
  bytes_ = h.size();
  open_ = true;
}

TraceCorpusWriter::~TraceCorpusWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; an explicit close() reports errors.
  }
}

void TraceCorpusWriter::append(const TraceRecord& record) {
  appendEncoded(encodeTrace(record, header_.samplesPerTrace));
}

void TraceCorpusWriter::appendEncoded(const std::vector<std::uint8_t>& blob) {
  if (!open_) throw CorpusError("corpus writer already closed: " + path_);
  out_.write(reinterpret_cast<const char*>(blob.data()),
             static_cast<std::streamsize>(blob.size()));
  if (!out_) throw CorpusError("corpus write failed: " + path_);
  ++traces_;
  bytes_ += blob.size();
}

void TraceCorpusWriter::close() {
  if (!open_) return;
  open_ = false;
  out_.seekp(kCountOffset);
  std::vector<std::uint8_t> c;
  putU64(c, traces_);
  out_.write(reinterpret_cast<const char*>(c.data()), 8);
  out_.close();
  if (!out_ && traces_ > 0) {
    throw CorpusError("corpus close failed: " + path_);
  }
}

// ---------------------------------------------------------------------------
// TraceCorpusReader
// ---------------------------------------------------------------------------

TraceCorpusReader::TraceCorpusReader(const std::string& path) : path_(path) {
  in_.open(path, std::ios::binary);
  if (!in_) throw CorpusError("cannot open corpus: " + path);
  std::uint8_t h[kHeaderBytes];
  in_.read(reinterpret_cast<char*>(h), sizeof h);
  if (in_.gcount() != static_cast<std::streamsize>(sizeof h)) {
    throw CorpusError("corpus header truncated: " + path);
  }
  if (std::memcmp(h, kMagic, 8) != 0) {
    throw CorpusError("bad magic — not a trace corpus: " + path);
  }
  BlockReader r{h + 8, sizeof h - 8};
  const std::uint32_t version = r.u32("format version");
  if (version != kCorpusFormatVersion) {
    throw CorpusError("unsupported corpus format version " +
                      std::to_string(version) + " (expected " +
                      std::to_string(kCorpusFormatVersion) + "): " + path);
  }
  header_.samplesPerTrace = r.u32("samplesPerTrace");
  header_.quantDenom = r.u32("quantDenom");
  r.u32("reserved");
  header_.traceCount = r.u64("traceCount");
  if (header_.quantDenom == 0) {
    throw CorpusError("corpus quantDenom is zero: " + path);
  }
  // Nothing may be sized from the header before it is checked against
  // the file: every trace costs its metadata block plus at least one
  // payload byte per sample, so a header promising more than the file
  // holds is refused here, before any reader or analyzer allocates.
  in_.seekg(0, std::ios::end);
  const std::streamoff end = in_.tellg();
  in_.seekg(static_cast<std::streamoff>(kHeaderBytes));
  if (end < static_cast<std::streamoff>(kHeaderBytes) || !in_) {
    throw CorpusError("cannot size corpus: " + path);
  }
  remaining_ = static_cast<std::uint64_t>(end) - kHeaderBytes;
  const std::uint64_t minTraceBytes =
      kTraceMetaBytes + std::uint64_t{header_.samplesPerTrace};
  if (header_.traceCount > remaining_ / minTraceBytes) {
    throw CorpusError("corpus header claims " +
                      std::to_string(header_.traceCount) +
                      " traces of at least " + std::to_string(minTraceBytes) +
                      " bytes, but only " + std::to_string(remaining_) +
                      " bytes follow the header: " + path);
  }
}

bool TraceCorpusReader::next(TraceRecord& out) {
  if (read_ == header_.traceCount) {
    // The count is authoritative; anything after the last trace is
    // corruption (e.g. a writer that died before patching the count).
    if (in_.peek() != std::ifstream::traits_type::eof()) {
      throw CorpusError("trailing bytes after trace " +
                        std::to_string(read_) + ": " + path_);
    }
    return false;
  }

  std::uint8_t fixed[kTraceMetaBytes];
  in_.read(reinterpret_cast<char*>(fixed), sizeof fixed);
  if (in_.gcount() != static_cast<std::streamsize>(sizeof fixed)) {
    throw CorpusError("corpus truncated in trace " + std::to_string(read_) +
                      " metadata (header claims " +
                      std::to_string(header_.traceCount) + " traces): " +
                      path_);
  }
  remaining_ -= sizeof fixed;
  BlockReader r{fixed, sizeof fixed};
  for (std::uint32_t& k : out.meta.key) k = r.u32("key");
  for (std::uint32_t& p : out.meta.plaintext) p = r.u32("plaintext");
  for (std::uint32_t& c : out.meta.ciphertext) c = r.u32("ciphertext");
  out.meta.noiseSeed = r.u64("noiseSeed");
  const std::uint32_t payloadBytes = r.u32("payloadBytes");

  // Checked before the payload buffer is sized from it.
  if (payloadBytes > remaining_) {
    throw CorpusError("trace " + std::to_string(read_) + " claims " +
                      std::to_string(payloadBytes) +
                      " payload bytes, but only " +
                      std::to_string(remaining_) + " remain: " + path_);
  }
  if (payloadBytes > kMaxVarintBytes * header_.samplesPerTrace) {
    throw CorpusError("trace " + std::to_string(read_) + " claims " +
                      std::to_string(payloadBytes) +
                      " payload bytes, more than " +
                      std::to_string(kMaxVarintBytes) + " per sample for " +
                      std::to_string(header_.samplesPerTrace) +
                      " samples: " + path_);
  }
  std::vector<std::uint8_t> payload(payloadBytes);
  in_.read(reinterpret_cast<char*>(payload.data()),
           static_cast<std::streamsize>(payloadBytes));
  if (in_.gcount() != static_cast<std::streamsize>(payloadBytes)) {
    throw CorpusError("corpus truncated in trace " + std::to_string(read_) +
                      " samples: " + path_);
  }
  remaining_ -= payloadBytes;

  out.samples.clear();
  out.samples.reserve(header_.samplesPerTrace);
  std::size_t pos = 0;
  std::int64_t prev = 0;
  while (out.samples.size() < header_.samplesPerTrace) {
    std::uint64_t u = 0;
    int shift = 0;
    for (;;) {
      if (pos >= payload.size()) {
        throw CorpusError("corrupt sample stream in trace " +
                          std::to_string(read_) +
                          ": payload ends mid-varint: " + path_);
      }
      const std::uint8_t byte = payload[pos++];
      u |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
      if (shift >= 64) {
        throw CorpusError("corrupt sample stream in trace " +
                          std::to_string(read_) + ": varint overlong: " +
                          path_);
      }
    }
    prev += unzigzag(u);
    out.samples.push_back(prev);
  }
  if (pos != payload.size()) {
    throw CorpusError("corrupt sample stream in trace " +
                      std::to_string(read_) + ": " +
                      std::to_string(payload.size() - pos) +
                      " surplus payload bytes: " + path_);
  }
  ++read_;
  return true;
}

} // namespace sct::sca
