// The one JSON writer behind bench_e2e's output record.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A JSON object under construction. Keys keep insertion order; doubles
/// are written with all their digits (non-finite values become null).
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double value);
  JsonObject& add(const std::string& key, std::uint64_t value);
  JsonObject& add(const std::string& key, bool value);
  JsonObject& add(const std::string& key, const std::string& value);
  JsonObject& add(const std::string& key, const char* value);
  JsonObject& add(const std::string& key, const JsonObject& value);
  JsonObject& add(const std::string& key,
                  const std::map<std::string, double>& values);
  JsonObject& add(const std::string& key,
                  const std::vector<JsonObject>& values);

  [[nodiscard]] std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;  // rendered
};

}  // namespace perfbench
