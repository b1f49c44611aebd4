#include "eclipse/media/rle.hpp"

#include "eclipse/media/bitstream.hpp"
#include "eclipse/media/kernels.hpp"

namespace eclipse::media::rle {

void RunLevels::overflow() {
  throw BitstreamError("rle: more than 64 run/level pairs in a block");
}

RunLevels encode(const Block& scanned) {
  RunLevels pairs;
  kernels::active().rle_encode(scanned, pairs);
  return pairs;
}

void decode(const RunLevels& pairs, Block& scanned) {
  scanned.fill(0);
  int pos = 0;
  for (const auto& p : pairs) {
    pos += p.run;
    if (p.level == 0) throw BitstreamError("rle::decode: zero level");
    if (pos >= 64) throw BitstreamError("rle::decode: pairs overflow 8x8 block");
    scanned[static_cast<std::size_t>(pos)] = p.level;
    ++pos;
  }
}

}  // namespace eclipse::media::rle
