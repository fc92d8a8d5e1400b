// Deterministic full-system checkpoint/restore.
//
// A Snapshot is an ordered list of tagged, versioned component
// sections; the CheckpointRegistry binds live simulation objects to
// those sections. Snapshots may only be taken at *quiesce points*
// (zero outstanding transfers per class, TL2 idle, bridge drained —
// the same predicate the hier subsystem uses for fidelity switches):
// at quiesce every pointer-carrying transient (request queues, bridge
// slots, masters' in-flight lists) is empty, so components serialize
// plain counters, stats and lazy bookkeeping only, and a restore into
// a freshly constructed system continues bit-identically — same
// cycles, payloads, per-signal transitions, stats and energy as the
// uninterrupted run.
//
// On-disk format (all little-endian):
//   magic "SCTCKPT\n" (8 bytes)
//   u32 format version (kFormatVersion)
//   u32 section count
//   per section: str tag, u32 component version, u32 payload length,
//                payload bytes
// Unknown tags, missing tags, version skew and truncation are rejected
// with a CheckpointError naming the offending component — never UB.
#ifndef SCT_CKPT_CHECKPOINT_H
#define SCT_CKPT_CHECKPOINT_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/state_io.h"

namespace sct::ckpt {

inline constexpr char kMagic[8] = {'S', 'C', 'T', 'C', 'K', 'P', 'T', '\n'};
inline constexpr std::uint32_t kFormatVersion = 1;

class Snapshot {
 public:
  struct Section {
    std::string tag;
    std::uint32_t version = 0;
    std::vector<std::uint8_t> payload;
  };

  void addSection(std::string tag, std::uint32_t version,
                  std::vector<std::uint8_t> payload);

  const Section* find(std::string_view tag) const;
  const std::vector<Section>& sections() const { return sections_; }
  bool empty() const { return sections_.empty(); }

  /// Serialize to the versioned on-disk byte format.
  std::vector<std::uint8_t> serialize() const;

  /// Size serialize() would return for a snapshot holding only the
  /// first `count` sections (all of them if there are fewer).
  std::size_t serializedSize(std::size_t count) const;

  /// Parse, validating magic / format version / section framing.
  static Snapshot deserialize(const std::uint8_t* data, std::size_t size);
  static Snapshot deserialize(const std::vector<std::uint8_t>& buf) {
    return deserialize(buf.data(), buf.size());
  }

  void saveFile(const std::string& path) const;
  static Snapshot loadFile(const std::string& path);

 private:
  std::vector<Section> sections_;
};

/// One checkpointable component: a stable tag, a layout version, and
/// the save/load pair. Core classes implement plain
/// `saveState(StateWriter&) const` / `loadState(StateReader&)` methods
/// (no vtable intrusion); the Component<T> adapter below lifts them
/// into this interface.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  virtual std::string_view tag() const = 0;
  virtual std::uint32_t version() const = 0;
  virtual void save(StateWriter& w) const = 0;
  virtual void load(StateReader& r) = 0;
};

template <typename T>
class Component final : public Checkpointable {
 public:
  Component(std::string tag, std::uint32_t version, T& object)
      : tag_(std::move(tag)), version_(version), object_(&object) {}

  std::string_view tag() const override { return tag_; }
  std::uint32_t version() const override { return version_; }
  void save(StateWriter& w) const override { object_->saveState(w); }
  void load(StateReader& r) override { object_->loadState(r); }

 private:
  std::string tag_;
  std::uint32_t version_;
  T* object_;
};

/// Ordered collection of components. Registration order defines both
/// the section order in the snapshot and the load order on restore —
/// register the Clock before anything that re-parks against it.
class CheckpointRegistry {
 public:
  /// Binds `object` under `tag`; uses T::kCkptVersion unless an
  /// explicit version is given (the override exists mostly for the
  /// version-skew tests).
  template <typename T>
  void add(std::string tag, T& object,
           std::uint32_t version = T::kCkptVersion) {
    addComponent(std::make_unique<Component<T>>(std::move(tag), version,
                                                object));
  }

  void addComponent(std::unique_ptr<Checkpointable> c);

  std::size_t size() const { return components_.size(); }

  /// Serialize every component, in registration order.
  Snapshot saveAll() const;

  /// Restore every registered component from `snap`. Every component
  /// must find its tag with an exactly matching version, and must
  /// consume its payload fully; anything else throws CheckpointError.
  void loadAll(const Snapshot& snap);

 private:
  std::vector<std::unique_ptr<Checkpointable>> components_;
};

} // namespace sct::ckpt

#endif // SCT_CKPT_CHECKPOINT_H
