#!/usr/bin/env bash
# Codegen check for the run-time-selected vector kernels, in the build
# that ships: plain `--release`, no RUSTFLAGS, no `-C target-cpu`.
#
# The workspace targets baseline x86-64, so 256-bit and carry-less
# multiply instructions appear only inside functions compiled with
# `#[target_feature]` and chosen by a run-time CPU check:
#
# * nomloc-dsp's AVX2 wrapper (`simd::x86::with_avx2`, one instance per
#   kernel of the zero-padded PDP transform: its fill, middle passes and
#   folding final pass) must hold packed 256-bit `vmulpd`/`vaddpd` on
#   `ymm` registers. Their absence means the kernel bodies were not
#   inlined into the wrapper and run at baseline width. Each of the three
#   kernels (`pruned::Fill`, `pruned::Passes`, `pruned::FoldPass`) must
#   have such an instance; the asm is emitted with v0 symbol mangling,
#   whose names carry the kernel type.
# * nomloc-net's CRC kernel (`crc32::clmul::x86::fold`) must hold
#   `pclmulqdq`.
#
# Exits non-zero when either is missing. x86-64 only; elsewhere it says so
# and exits 0.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "$(uname -m)" != "x86_64" ]]; then
  echo "not an x86-64 host — nothing to check"
  exit 0
fi

# Emits release asm for one crate and prints the path of the .s file.
emit_asm() {
  local crate="$1" stem="$2"
  cargo rustc --release --offline -q -p "$crate" -- --emit asm \
    -C symbol-mangling-version=v0 >/dev/null
  ls -t target/release/deps/"$stem"-*.s 2>/dev/null | head -1
}

# Counts lines matching $3 inside functions whose label matches $2.
count_in_fns() {
  awk -v fn_re="$2" -v op_re="$3" '
    /^[A-Za-z_][A-Za-z0-9_.$]*:/ { infn = ($0 ~ fn_re) }
    infn && $0 ~ op_re { count++ }
    END { print count + 0 }
  ' "$1"
}

status=0

echo "==> nomloc-dsp: AVX2 wrapper (release build, no RUSTFLAGS)"
dsp_asm="$(emit_asm nomloc-dsp nomloc_dsp)"
echo "    inspecting $dsp_asm"
# One line per wrapper instance: its label, packed ymm multiply and add
# counts.
per_instance="$(awk '
  /^[A-Za-z_][A-Za-z0-9_.$]*:/ {
    infn = ($0 ~ /with_avx2/)
    if (infn) { n++; name[n] = $0; mul[n] = 0; add[n] = 0 }
  }
  infn && /vmulpd[[:space:]].*%ymm/ { mul[n]++ }
  infn && /vaddpd[[:space:]].*%ymm/ { add[n]++ }
  END { for (i = 1; i <= n; i++) print name[i], mul[i], add[i] }
' "$dsp_asm")"
if [[ -z "$per_instance" ]]; then
  echo "error: no AVX2 wrapper instance in the emitted asm" >&2
  status=1
fi
while read -r name mul add; do
  [[ -z "${name:-}" ]] && continue
  echo "    wrapper instance $name $mul packed ymm vmulpd, $add vaddpd"
  if [[ "$mul" -eq 0 || "$add" -eq 0 ]]; then
    echo "error: an AVX2 wrapper instance holds no packed 256-bit vmulpd/vaddpd" >&2
    status=1
  fi
done <<< "$per_instance"
# v0 names carry each path segment as <length><name>: `6pruned4Fill`.
for kernel in Fill Passes FoldPass; do
  if ! grep -q "with_avx2.*6pruned${#kernel}${kernel}E" <<< "$per_instance"; then
    echo "error: no AVX2 build of pruned::$kernel" >&2
    status=1
  fi
done

echo "==> nomloc-net: CRC folding kernel (release build, no RUSTFLAGS)"
net_asm="$(emit_asm nomloc-net nomloc_net)"
echo "    inspecting $net_asm"
clmul="$(count_in_fns "$net_asm" 'clmul' 'pclmul')"
echo "    carry-less multiplies: $clmul pclmulqdq"
if [[ "$clmul" -eq 0 ]]; then
  echo "error: no pclmulqdq in the CRC kernel" >&2
  status=1
fi

[[ "$status" -eq 0 ]] && echo "OK: both kernels hold their vector instructions"
exit "$status"
