#!/usr/bin/env bash
# Proof that the kernel hot loops and the int8 NPU emulation's
# quantization loops autovectorize: build shmt-kernels (and with it
# shmt-tensor) with --emit asm and require packed float instructions in
# the output.
#
# The interior loops are written in the slice idioms (windows(3) zips,
# iter_mut().zip saxpy) that LLVM reliably turns into SIMD; this gate
# keeps that property from silently regressing — a refactor that breaks
# vectorization (say, reintroducing per-element bounds checks) collapses
# the packed-op count and fails CI. Packed sqrtps additionally pins the
# Sobel/SRAD magnitude loops specifically, since sqrt only appears there.
#
# In shmt-tensor the check is per function. The range scan behind every
# min_max must use packed minps/maxps. The two bulk snaps (snap_slice,
# snap_into) must divide with packed divps and clamp with packed
# minps/maxps, and must contain neither a libm roundf call nor a scalar
# cvttss2si: either one would mean the rounding went back to f32::round
# or to a saturating int cast, which keeps the loop scalar.
#
# Uses its own target dir: the RUSTFLAGS change would otherwise
# invalidate the main build cache for every later cargo invocation.
set -euo pipefail
cd "$(dirname "$0")/.."

case "$(uname -m)" in
x86_64) ;;
*)
    echo "SIMD asm check skipped (non-x86_64 host: $(uname -m))"
    exit 0
    ;;
esac

RUSTFLAGS="--emit asm" cargo build --release -q -p shmt-kernels \
    --target-dir target/simd-check

asm=$(ls -t target/simd-check/release/deps/shmt_kernels-*.s | head -1)
[ -s "$asm" ] || { echo "no assembly emitted for shmt-kernels"; exit 1; }

packed=$(grep -cE '\b(mulps|addps|subps|vmulps|vaddps|vsubps|vfmadd[0-9]*ps)\b' "$asm" || true)
packed_sqrt=$(grep -cE '\b(sqrtps|vsqrtps)\b' "$asm" || true)

echo "packed float ops: $packed, packed sqrt: $packed_sqrt ($asm)"
if [ "$packed" -lt 50 ]; then
    echo "autovectorization regressed: only $packed packed float ops (want >= 50)"
    exit 1
fi
if [ "$packed_sqrt" -lt 1 ]; then
    echo "autovectorization regressed: no packed sqrt in the stencil magnitude loops"
    exit 1
fi
tasm=$(ls -t target/simd-check/release/deps/shmt_tensor-*.s | head -1)
[ -s "$tasm" ] || { echo "no assembly emitted for shmt-tensor"; exit 1; }

# Prints the body of the first function whose mangled symbol contains $1.
body() {
    awk -v pat="$1" 'index($0, pat) && /^_ZN.*:$/ { p = 1 } p { print } p && /^\.Lfunc_end/ { exit }' "$tasm"
}

# require_packed <symbol part> <label> <packed op>...
require_packed() {
    local sym=$1 label=$2
    shift 2
    local b
    b=$(body "$sym")
    [ -n "$b" ] || { echo "$label not found in $tasm"; exit 1; }
    for op in "$@"; do
        grep -qE "\bv?$op\b" <<<"$b" || {
            echo "$label is not vectorized: no packed $op"
            exit 1
        }
    done
    if grep -qE '\b(roundf|cvttss2si)' <<<"$b"; then
        echo "$label calls roundf or converts with scalar cvttss2si"
        exit 1
    fi
    echo "$label: packed $*"
}

require_packed 5quant10snap_slice "quant::snap_slice" divps minps maxps
require_packed 11QuantParams9snap_into "QuantParams::snap_into" divps minps maxps
require_packed 4scan7min_max "range scan (scan::min_max)" minps maxps
echo "SIMD asm check OK"
