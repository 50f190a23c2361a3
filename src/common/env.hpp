// Once-per-process environment configuration.
//
// Every REPRO_* switch (REPRO_JOBS) is captured from the environment
// exactly once — the first time any code asks for that variable — and
// the captured value is served for the remainder of the process. Set
// these variables before the first use; mutating the environment
// afterwards has no effect. This file is the single home of that
// contract: call sites (default_jobs) reference it instead of
// restating the semantics.
#pragma once

#include <optional>
#include <string>

namespace repro {

// The value `name` had at first read, or nullopt when it was unset.
// Thread-safe; the first read per name is the one that sticks.
std::optional<std::string> env_once(const std::string& name);

}  // namespace repro
