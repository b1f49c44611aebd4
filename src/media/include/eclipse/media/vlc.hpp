#pragma once

#include <vector>

#include "eclipse/media/bitstream.hpp"
#include "eclipse/media/rle.hpp"

namespace eclipse::media::vlc {

/// Variable-length coding of run/level symbols.
///
/// The code is MPEG-2-flavoured but self-defined (see DESIGN.md,
/// substitution 2): a short prefix code covers the statistically common
/// pairs and an escape mechanism covers the rest, so code length — and thus
/// VLD work — is strongly data dependent, which is the property the Eclipse
/// experiments rely on.
///
/// Symbol syntax (MSB first):
///   '0'  run(2) level_minus1(2) sign(1)   common pair: run<4, 1<=|level|<=4
///   '10'                                  end of block
///   '11' ue(run) ue(|level|-1) sign(1)    escape
void putBlock(BitWriter& bw, const rle::RunLevels& pairs);

/// Decodes one block's run/level pairs up to and including EOB.
/// Throws BitstreamError on malformed input.
[[nodiscard]] rle::RunLevels getBlock(BitReader& br);

/// Exact coded size in bits of one pair (for load modelling and tests).
[[nodiscard]] int pairBits(const rle::RunLevel& pair);

/// Coded size of the end-of-block symbol.
inline constexpr int kEobBits = 2;

}  // namespace eclipse::media::vlc
