// Minimal JSON for the serve protocol (newline-delimited JSON jobs in,
// result lines out).
//
// The daemon cannot take a third-party JSON dependency (the toolchain
// image is frozen), and the protocol needs only the scalar subset:
// objects, arrays, strings, doubles, bools, null. The parser is a
// strict recursive-descent over one line; the writer escapes strings
// per RFC 8259 and prints doubles with %.17g so a value survives a
// parse→print round trip BIT-EXACT. Energies are whole attojoule counts
// converted once to femtojoules (bus::toFemtojoules), so a client
// recovers the exact count as round(1000 * value), and equal sessions
// print equal lines — the session determinism suite compares result
// lines as strings.
#ifndef SCT_SERVE_JSON_H
#define SCT_SERVE_JSON_H

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sct::serve {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One parsed JSON value. Objects keep insertion order irrelevant
/// (std::map) — the protocol addresses fields by name only.
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;
  static JsonValue makeBool(bool b);
  /// `text` is the literal as it appeared in the document (asUint reads
  /// it); values built in code may leave it empty.
  static JsonValue makeNumber(double d, std::string text = {});
  static JsonValue makeString(std::string s);
  static JsonValue makeArray();
  static JsonValue makeObject();

  Kind kind() const { return kind_; }
  bool isObject() const { return kind_ == Kind::Object; }
  bool isString() const { return kind_ == Kind::String; }
  bool isNumber() const { return kind_ == Kind::Number; }

  bool asBool() const;
  double asNumber() const;
  /// The number's literal read exactly, as digits only, into an integer
  /// no larger than `max` — no double rounding in between. Throws
  /// JsonError for anything else: a sign, a fraction, an exponent, a
  /// value above `max`, or a value that is not a number.
  std::uint64_t asUint(std::uint64_t max) const;
  const std::string& asString() const;
  const std::vector<JsonValue>& asArray() const;
  const std::map<std::string, JsonValue>& asObject() const;

  /// Object field access; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;

  std::vector<JsonValue>& mutableArray();
  std::map<std::string, JsonValue>& mutableObject();

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;  ///< A string's value, or a number's literal.
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Deepest array/object nesting parseJson accepts. The parser recurses
/// once per level, so the cap bounds its stack use on hostile input;
/// protocol lines nest two levels.
inline constexpr std::size_t kMaxJsonDepth = 64;

/// Parse one complete JSON document; trailing non-whitespace, nesting
/// deeper than kMaxJsonDepth or any syntax error throws JsonError with
/// an offset-bearing message.
JsonValue parseJson(std::string_view text);

/// Append `text` JSON-escaped (quotes included) to `out`.
void appendJsonString(std::string& out, std::string_view text);

/// Append a double formatted with %.17g — lossless for any finite
/// value; non-finite values (which valid sessions never produce)
/// degrade to null.
void appendJsonNumber(std::string& out, double value);

} // namespace sct::serve

#endif // SCT_SERVE_JSON_H
