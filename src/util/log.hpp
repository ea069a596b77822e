/// \file log.hpp
/// Leveled stderr logging. Quiet by default (Warn); bench harnesses raise
/// verbosity with --verbose. Thread-safe.

#pragma once

#include <string_view>

namespace moldsched {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3 };

/// Set the global threshold; messages below it are dropped.
void set_log_level(LogLevel level) noexcept;
[[nodiscard]] LogLevel log_level() noexcept;

void log(LogLevel level, std::string_view message);

inline void log_info(std::string_view m) { log(LogLevel::Info, m); }

}  // namespace moldsched
