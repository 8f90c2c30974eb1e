// The one writer of text artifacts: every exporter renders its file to a
// string and hands it here, so opening, writing and failure checking
// live in exactly one place.
#pragma once

#include <string>
#include <string_view>

namespace choir {

/// Replace the file at `path` with `bytes`. Throws choir::Error naming
/// the path when the file cannot be opened or the bytes do not all reach
/// it (a full disk, a missing directory).
void write_file(const std::string& path, std::string_view bytes);

}  // namespace choir
