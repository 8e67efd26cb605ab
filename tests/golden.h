// Golden-bytes helpers for the byte-format tests (DESIGN.md §2.1): an
// encoding is pinned as a lowercase hex literal, so a change to any format
// shows up as a readable diff.

#ifndef TFREPRO_TESTS_GOLDEN_H_
#define TFREPRO_TESTS_GOLDEN_H_

#include <string>

namespace tfrepro {

inline std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

}  // namespace tfrepro

#endif  // TFREPRO_TESTS_GOLDEN_H_
