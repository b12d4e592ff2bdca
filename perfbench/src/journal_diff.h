#ifndef PERFBENCH_JOURNAL_DIFF_H_
#define PERFBENCH_JOURNAL_DIFF_H_

#include <string>

namespace perfbench {

/// Compares two JSONL journals event by event, ignoring the wall-clock
/// members the program stamps on events (`ts_ms`, `latency`, and any other
/// `*_ms` timestamp listed in journal_diff.cc). Returns an empty string
/// when every other field is equal, otherwise the first difference.
std::string DiffJournals(const std::string& path_a, const std::string& path_b);

/// Size of a file in bytes (0 when missing).
long long FileBytes(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_JOURNAL_DIFF_H_
