// The one JSON writer (DESIGN.md §8). The metrics snapshot, the Chrome
// trace, the profile and the bench/ reports are built through it, so only
// this file knows JSON syntax:
//
//   JsonWriter w;
//   w.BeginObject().Key("name").String(n).Key("count").Int(c).EndObject();
//   std::string doc = w.str();
//
// Commas and colons are placed automatically. Strings escape '"', '\\',
// newline and tab by name and other bytes below 0x20 as \u00XX; every other
// byte (UTF-8 included) passes through unchanged. A double is written in
// the shortest form that reads back to the same value (std::to_chars), and
// a NaN or infinity, which JSON cannot spell, as null.

#ifndef TFREPRO_CORE_JSON_H_
#define TFREPRO_CORE_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace tfrepro {

class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  // Names the next value of the enclosing object.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view s);
  JsonWriter& Int(int64_t v);
  JsonWriter& Double(double v);
  JsonWriter& Bool(bool v);
  // An object of string values (metric tags, trace event args).
  JsonWriter& StringMap(const std::map<std::string, std::string>& m);

  const std::string& str() const { return out_; }

 private:
  // Starts a key or a value: a comma first unless it opens its container
  // or follows a key.
  void Next();
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  void Escaped(std::string_view s);

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace tfrepro

#endif  // TFREPRO_CORE_JSON_H_
