#pragma once
// Scoped environment override for tests that steer the runtime through
// environment variables (FTR_CHECK, FTR_RECOVERY, ...): the previous value
// is restored on destruction, so one test's selection never leaks into the
// next test in the same binary.

#include <cstdlib>
#include <optional>
#include <string>

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      setenv(name_, old_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};
