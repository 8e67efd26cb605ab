#include "core/coding.h"

#include <cstdio>
#include <ostream>

namespace tfrepro {

void AppendJsonString(std::ostream* os, const std::string& s) {
  *os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *os << "\\\"";
        break;
      case '\\':
        *os << "\\\\";
        break;
      case '\n':
        *os << "\\n";
        break;
      case '\t':
        *os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *os << buf;
        } else {
          *os << c;
        }
    }
  }
  *os << '"';
}

}  // namespace tfrepro
