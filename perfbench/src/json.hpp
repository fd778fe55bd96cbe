// Minimal JSON writer for the result and details lines.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Json {
 public:
  Json& begin_object() { return open('{'); }
  Json& end_object() { return close('}'); }
  Json& begin_array() { return open('['); }
  Json& end_array() { return close(']'); }

  Json& key(const std::string& k) {
    comma();
    quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  Json& value(const std::string& s) {
    comma();
    quote(s);
    return *this;
  }
  Json& value(const char* s) { return value(std::string(s)); }
  Json& value(bool b) {
    comma();
    out_ += b ? "true" : "false";
    return *this;
  }
  // Full precision; non-finite values (never expected) become null.
  Json& value(double d) {
    comma();
    if (!std::isfinite(d)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out_ += buf;
    return *this;
  }

  const std::string& str() const { return out_; }

 private:
  Json& open(char c) {
    comma();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  void comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  void quote(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"':
          out_ += "\\\"";
          break;
        case '\\':
          out_ += "\\\\";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace perfbench
