// Whole-file reads and replace-by-rename writes (DESIGN.md §12). Metrics
// dumps, traces, profiles, bench/ reports, checkpoints and state-log
// compactions go through WriteFileAtomically: a reader of `path` sees the
// old file or the new one, never a torn mix, even with several writers
// (processes that inherit one dump path included).

#ifndef TFREPRO_CORE_FILE_H_
#define TFREPRO_CORE_FILE_H_

#include <string>

#include "core/status.h"

namespace tfrepro {

// The whole content of `path`; NotFound when it cannot be opened.
Result<std::string> ReadFile(const std::string& path);

// Writes `bytes` to a temp file beside `path`, named uniquely per call
// (process id and a counter), and renames it over `path`. On failure the
// temp file is removed and `path` is left as it was. No fsync: the fault
// modeled is process death (DESIGN.md §7), and rename is atomic under it.
Status WriteFileAtomically(const std::string& path, const std::string& bytes);

}  // namespace tfrepro

#endif  // TFREPRO_CORE_FILE_H_
