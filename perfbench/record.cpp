#include "record.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

JsonObject& JsonObject::add(const std::string& key, double value) {
  fields_.emplace_back(key, number(value));
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, quote(value));
  return *this;
}

JsonObject& JsonObject::add(const std::string& key, const char* value) {
  return add(key, std::string(value));
}

JsonObject& JsonObject::add(const std::string& key, const JsonObject& value) {
  fields_.emplace_back(key, value.dump());
  return *this;
}

JsonObject& JsonObject::add(const std::string& key,
                            const std::map<std::string, double>& values) {
  JsonObject object;
  for (const auto& [k, v] : values) object.add(k, v);
  return add(key, object);
}

JsonObject& JsonObject::add(const std::string& key,
                            const std::vector<JsonObject>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += values[i].dump();
  }
  fields_.emplace_back(key, out + "]");
  return *this;
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
