#include "journal_diff.h"

#include <sys/stat.h>

#include <fstream>
#include <set>
#include <vector>

#include "obs/json.h"

namespace perfbench {

namespace {

using autotune::obs::Json;

/// Members holding wall-clock readings rather than tuning state.
const std::set<std::string>& WallClockKeys() {
  static const std::set<std::string> keys = {"ts_ms", "latency",
                                             "deadline_at_ms"};
  return keys;
}

void StripWallClock(Json* json) {
  if (json->is_object()) {
    Json::Object& object = json->AsObject();
    for (const std::string& key : WallClockKeys()) object.erase(key);
    for (auto& [key, value] : object) StripWallClock(&value);
  } else if (json->is_array()) {
    for (Json& value : json->AsArray()) StripWallClock(&value);
  }
}

bool ReadLines(const std::string& path, std::vector<std::string>* lines) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines->push_back(line);
  }
  return true;
}

}  // namespace

std::string DiffJournals(const std::string& path_a, const std::string& path_b) {
  std::vector<std::string> a;
  std::vector<std::string> b;
  if (!ReadLines(path_a, &a)) return "cannot read " + path_a;
  if (!ReadLines(path_b, &b)) return "cannot read " + path_b;
  if (a.size() != b.size()) {
    return path_a + ": " + std::to_string(a.size()) + " events vs " +
           std::to_string(b.size());
  }
  for (size_t i = 0; i < a.size(); ++i) {
    auto event_a = Json::Parse(a[i]);
    auto event_b = Json::Parse(b[i]);
    if (!event_a.ok() || !event_b.ok()) {
      return path_a + ": unparsable event " + std::to_string(i);
    }
    StripWallClock(&*event_a);
    StripWallClock(&*event_b);
    if (event_a->Dump() != event_b->Dump()) {
      return path_a + ": event " + std::to_string(i) + " differs";
    }
  }
  return "";
}

long long FileBytes(const std::string& path) {
  struct stat info {};
  if (stat(path.c_str(), &info) != 0) return 0;
  return static_cast<long long>(info.st_size);
}

}  // namespace perfbench
