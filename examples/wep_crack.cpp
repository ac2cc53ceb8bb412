// AirSnort demo: passively capture WEP traffic from a busy network and
// recover the shared key with the Fluhrer–Mantin–Shamir attack — the
// paper's §4 step where an outside attacker "retrieved the WEP key via
// Airsnort and a MAC address that he has observed by sniffing".
//
//   $ ./wep_crack [frames]
#include <cstdio>
#include <cstdlib>

#include "attack/fms.hpp"
#include "crypto/wep.hpp"
#include "dot11/frame.hpp"
#include "util/bytes.hpp"

using namespace rogue;

int main(int argc, char** argv) {
  std::size_t frames = 8'000'000;
  if (argc > 1) frames = static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10));

  const util::Bytes key = util::to_bytes("KEY42");  // WEP-40, known only to the AP
  std::printf("AirSnort/FMS demo: capturing %zu WEP frames from a network\n"
              "whose card issues sequential IVs (little-endian counter)...\n\n",
              frames);

  attack::FmsCracker cracker(key.size());
  crypto::WepIvGenerator gen(crypto::WepIvPolicy::kSequential, key.size(), 1);
  const util::Bytes msdu =
      dot11::llc_encode(dot11::kEtherTypeIpv4, util::to_bytes("some payload"));

  std::size_t captured = 0;
  for (std::size_t i = 0; i < frames; ++i) {
    const crypto::WepIv iv = gen.next();
    ++captured;
    // Only weak-IV frames matter to FMS; skip the (expensive) encryption
    // of the rest, exactly what a capture filter would discard anyway.
    if (!crypto::is_fms_weak_iv(iv, key.size())) continue;
    cracker.add_frame(crypto::wep_encrypt(iv, key, msdu));

    if (cracker.weak_samples() % 250 == 0) {
      const auto guess = cracker.try_recover();
      std::printf("  %9zu frames, %5zu weak IVs -> %s\n", captured,
                  cracker.weak_samples(),
                  guess ? ("candidate key: " + util::hex_encode(*guess)).c_str()
                        : "(not enough votes yet)");
      if (guess && *guess == key) {
        std::printf("\nKEY RECOVERED after %zu captured frames: \"%s\" (%s)\n",
                    captured, util::to_string(*guess).c_str(),
                    util::hex_encode(*guess).c_str());
        std::printf("The attacker can now authenticate to the WEP network and\n"
                    "stand up the rogue AP with the correct shared key.\n");
        return 0;
      }
    }
  }

  const auto final_guess = cracker.try_recover();
  if (final_guess && *final_guess == key) {
    std::printf("\nKEY RECOVERED: %s\n", util::hex_encode(*final_guess).c_str());
  } else {
    std::printf("\nKey not recovered in %zu frames; capture more traffic.\n",
                frames);
  }
  return 0;
}
