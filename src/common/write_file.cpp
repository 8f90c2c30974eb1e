#include "common/write_file.hpp"

#include <fstream>

#include "common/expect.hpp"

namespace choir {

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot open for writing: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  // The bytes may still sit in the stream buffer; only a flush shows
  // whether they reached the file.
  out.flush();
  if (!out) throw Error("write failed: " + path);
}

}  // namespace choir
