#include "core/json.h"

#include <charconv>
#include <cmath>

namespace tfrepro {

namespace {

template <typename T>
void AppendNumber(std::string* out, T v) {
  char buf[32];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

void JsonWriter::Next() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

JsonWriter& JsonWriter::Open(char bracket) {
  Next();
  out_ += bracket;
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  out_ += bracket;
  need_comma_ = true;
  return *this;
}

void JsonWriter::Escaped(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out_ += '"';
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (c == '\n') {
      out_ += "\\n";
    } else if (c == '\t') {
      out_ += "\\t";
    } else if (u < 0x20) {
      out_ += "\\u00";
      out_ += kHex[u >> 4];
      out_ += kHex[u & 15];
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Next();
  Escaped(key);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view s) {
  Next();
  Escaped(s);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t v) {
  Next();
  AppendNumber(&out_, v);
  return *this;
}

JsonWriter& JsonWriter::Double(double v) {
  Next();
  if (std::isfinite(v)) {
    AppendNumber(&out_, v);
  } else {
    out_ += "null";
  }
  return *this;
}

JsonWriter& JsonWriter::Bool(bool v) {
  Next();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::StringMap(
    const std::map<std::string, std::string>& m) {
  BeginObject();
  for (const auto& [k, v] : m) Key(k).String(v);
  return EndObject();
}

}  // namespace tfrepro
