#include "ckpt/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace sct::ckpt {

void Snapshot::addSection(std::string tag, std::uint32_t version,
                          std::vector<std::uint8_t> payload) {
  for (const Section& s : sections_) {
    if (s.tag == tag) {
      throw CheckpointError("duplicate checkpoint section tag '" + tag +
                            "'");
    }
  }
  sections_.push_back(Section{std::move(tag), version, std::move(payload)});
}

const Snapshot::Section* Snapshot::find(std::string_view tag) const {
  for (const Section& s : sections_) {
    if (s.tag == tag) return &s;
  }
  return nullptr;
}

std::vector<std::uint8_t> Snapshot::serialize() const {
  StateWriter w;
  w.bytes(kMagic, sizeof(kMagic));
  w.u32(kFormatVersion);
  w.u32(static_cast<std::uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    w.str(s.tag);
    w.u32(s.version);
    w.u32(static_cast<std::uint32_t>(s.payload.size()));
    w.bytes(s.payload.data(), s.payload.size());
  }
  return w.take();
}

Snapshot Snapshot::deserialize(const std::uint8_t* data, std::size_t size) {
  StateReader r(data, size);
  char magic[sizeof(kMagic)];
  r.bytes(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointError("not a checkpoint file (bad magic)");
  }
  const std::uint32_t format = r.u32();
  if (format != kFormatVersion) {
    throw CheckpointError(
        "unsupported checkpoint format version " + std::to_string(format) +
        " (this build reads version " + std::to_string(kFormatVersion) +
        ")");
  }
  const std::uint32_t count = r.u32();
  Snapshot snap;
  for (std::uint32_t i = 0; i < count; ++i) {
    Section s;
    s.tag = r.str();
    s.version = r.u32();
    const std::uint32_t len = r.u32();
    // Checked before allocating: the length field is untrusted.
    if (len > r.remaining()) {
      throw CheckpointError("checkpoint section '" + s.tag +
                            "' truncated: claims " + std::to_string(len) +
                            " payload bytes, have " +
                            std::to_string(r.remaining()));
    }
    s.payload.resize(len);
    r.bytes(s.payload.data(), len);
    snap.sections_.push_back(std::move(s));
  }
  if (!r.done()) {
    throw CheckpointError("trailing bytes after last checkpoint section");
  }
  // Tags must be unique: find() would silently take the first. Sorted,
  // so a crafted file with many sections costs n log n, not n^2.
  std::vector<std::string_view> tags;
  tags.reserve(snap.sections_.size());
  for (const Section& s : snap.sections_) tags.emplace_back(s.tag);
  std::sort(tags.begin(), tags.end());
  const auto dup = std::adjacent_find(tags.begin(), tags.end());
  if (dup != tags.end()) {
    throw CheckpointError("duplicate checkpoint section tag '" +
                          std::string(*dup) + "'");
  }
  return snap;
}

void Snapshot::saveFile(const std::string& path) const {
  const std::vector<std::uint8_t> bytes = serialize();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw CheckpointError("cannot open '" + path + "' for writing");
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const int closeErr = std::fclose(f);
  if (written != bytes.size() || closeErr != 0) {
    throw CheckpointError("short write to '" + path + "'");
  }
}

Snapshot Snapshot::loadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw CheckpointError("cannot open '" + path + "' for reading");
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  const bool readErr = std::ferror(f) != 0;
  std::fclose(f);
  if (readErr) {
    throw CheckpointError("read error on '" + path + "'");
  }
  return deserialize(bytes);
}

void CheckpointRegistry::addComponent(std::unique_ptr<Checkpointable> c) {
  for (const auto& existing : components_) {
    if (existing->tag() == c->tag()) {
      throw CheckpointError("component tag '" + std::string(c->tag()) +
                            "' registered twice");
    }
  }
  components_.push_back(std::move(c));
}

Snapshot CheckpointRegistry::saveAll() const {
  Snapshot snap;
  for (const auto& c : components_) {
    StateWriter w;
    c->save(w);
    snap.addSection(std::string(c->tag()), c->version(), w.take());
  }
  return snap;
}

void CheckpointRegistry::loadAll(const Snapshot& snap) {
  for (const auto& c : components_) {
    const Snapshot::Section* s = snap.find(c->tag());
    if (s == nullptr) {
      throw CheckpointError("snapshot has no section for component '" +
                            std::string(c->tag()) + "'");
    }
    if (s->version != c->version()) {
      throw CheckpointError(
          "component '" + std::string(c->tag()) + "' version skew: " +
          "snapshot has v" + std::to_string(s->version) +
          ", this build expects v" + std::to_string(c->version()));
    }
    StateReader r(s->payload.data(), s->payload.size());
    c->load(r);
    if (!r.done()) {
      throw CheckpointError("component '" + std::string(c->tag()) +
                            "' left " + std::to_string(r.remaining()) +
                            " unread payload bytes");
    }
  }
}

} // namespace sct::ckpt
