//! Iterative radix-2 Cooley–Tukey FFT of windowed real streams.
//!
//! One transform shape serves the feature path: a loader writes one or
//! two real streams into a complex buffer in bit-reversed order, applying
//! the window coefficients as it goes, and the shared butterfly ladder
//! runs over it. A single stream rides in the real lane
//! ([`fft_windowed_real_into`]); a pair rides in both lanes
//! ([`fft_windowed_real_pair_into`], the DFT of `x + iy`) and
//! [`real_pair_magnitudes_into`] splits the two magnitude spectra back
//! out.

use crate::Complex;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Forward twiddle factors `e^(−2πik/n)` for `k < n/2`, cached per size.
///
/// Every stage of a length-`n` transform reads this one table at stride
/// `n / len`, so the trig evaluations happen once per size per process
/// instead of once per butterfly. Each table entry is computed directly
/// from its angle (not by repeated multiplication), and every caller —
/// whichever thread it runs on — sees the same table, so transforms stay
/// byte-identical across threads and call orders.
fn twiddle_table(n: usize) -> Arc<Vec<Complex>> {
    static CACHE: OnceLock<Mutex<HashMap<usize, Arc<Vec<Complex>>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("twiddle cache poisoned");
    map.entry(n)
        .or_insert_with(|| {
            let step = -2.0 * std::f64::consts::PI / n as f64;
            Arc::new(
                (0..n / 2)
                    .map(|k| Complex::from_angle(step * k as f64))
                    .collect(),
            )
        })
        .clone()
}

/// Returns the smallest power of two `>= n` (and `>= 1`).
pub(crate) fn next_power_of_two(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// The forward butterfly ladder over an already bit-reversed buffer.
/// Twiddles come from the shared per-size table at stride `n / len` (no
/// per-butterfly phasor accumulation, so stage twiddles carry full
/// `sin`/`cos` precision at every index).
fn butterflies(buf: &mut [Complex]) {
    let n = buf.len();
    if n <= 1 {
        return;
    }
    let table = twiddle_table(n);
    let mut len = 2;
    while len <= n {
        let stride = n / len;
        for start in (0..n).step_by(len) {
            for k in 0..len / 2 {
                let u = buf[start + k];
                let v = buf[start + k + len / 2] * table[k * stride];
                buf[start + k] = u + v;
                buf[start + k + len / 2] = u - v;
            }
        }
        len <<= 1;
    }
}

/// Loads up to two real streams into `buf` **in bit-reversed order**,
/// applying the window coefficients during the load: slot `rev(i)` gets
/// `x[i]·wx[i]` in the real lane and `y[i]·wy[i]` in the imaginary lane,
/// everything else is zero padding up to `n`.
///
/// One pass reads the raw streams directly: no windowed copy, no packed
/// copy, no permutation pass. `None` (every coefficient `1.0`) multiplies
/// by nothing at all.
fn load_bit_reversed(
    buf: &mut Vec<Complex>,
    n: usize,
    x: &[f64],
    wx: Option<&[f64]>,
    y: &[f64],
    wy: Option<&[f64]>,
) {
    debug_assert!(n.is_power_of_two() && n >= x.len().max(y.len()));
    debug_assert!(wx.is_none_or(|w| w.len() == x.len()));
    debug_assert!(wy.is_none_or(|w| w.len() == y.len()));
    buf.clear();
    buf.resize(n, Complex::ZERO);
    if n <= 1 {
        if let Some(&v) = x.first() {
            buf[0].re = v;
        }
        if let Some(&v) = y.first() {
            buf[0].im = v;
        }
        return;
    }
    let bits = n.trailing_zeros();
    let rev = |i: usize| i.reverse_bits() >> (usize::BITS - bits);
    match wx {
        Some(w) => {
            for (i, (&v, &c)) in x.iter().zip(w).enumerate() {
                buf[rev(i)].re = v * c;
            }
        }
        None => {
            for (i, &v) in x.iter().enumerate() {
                buf[rev(i)].re = v;
            }
        }
    }
    match wy {
        Some(w) => {
            for (i, (&v, &c)) in y.iter().zip(w).enumerate() {
                buf[rev(i)].im = v * c;
            }
        }
        None => {
            for (i, &v) in y.iter().enumerate() {
                buf[rev(i)].im = v;
            }
        }
    }
}

/// Forward FFT of one real stream, zero-padded to the next power of two,
/// with windowing fused into the bit-reversal load.
///
/// `buf` is recycled storage (cleared and resized to the padded length);
/// `wx` is the stream's window coefficients, `None` for all ones. The full
/// complex spectrum is left in `buf`; an empty stream yields one zero bin.
pub fn fft_windowed_real_into(buf: &mut Vec<Complex>, x: &[f64], wx: Option<&[f64]>) {
    let n = next_power_of_two(x.len());
    srtd_runtime::obs::counter_add("signal.fft.calls", 1);
    srtd_runtime::obs::observe("signal.fft.len", n as f64);
    load_bit_reversed(buf, n, x, wx, &[], None);
    butterflies(buf);
}

/// Forward FFTs of two real streams via one complex transform (the
/// "two-for-one" real FFT), with windowing fused into the bit-reversal
/// load.
///
/// `x` rides in the real lane and `y` in the imaginary lane, both
/// zero-padded to the next power of two at or above the longer length, so
/// `buf` is left holding the DFT of `x + iy`. Use
/// [`real_pair_magnitudes_into`] to read both single-sided magnitude
/// halves without materializing the split spectra.
pub fn fft_windowed_real_pair_into(
    buf: &mut Vec<Complex>,
    x: &[f64],
    wx: Option<&[f64]>,
    y: &[f64],
    wy: Option<&[f64]>,
) {
    srtd_runtime::obs::counter_add("signal.fft.real_pair_calls", 1);
    let n = next_power_of_two(x.len().max(y.len()));
    srtd_runtime::obs::counter_add("signal.fft.calls", 1);
    srtd_runtime::obs::observe("signal.fft.len", n as f64);
    load_bit_reversed(buf, n, x, wx, y, wy);
    butterflies(buf);
}

/// Splits a packed real-pair spectrum (as left in the buffer by
/// [`fft_windowed_real_pair_into`]) directly into the two single-sided
/// magnitude arrays, written into recycled storage.
///
/// For `k ≤ n/2` it computes the conjugate-symmetry split
/// `X[k] = (Z[k] + conj(Z[n−k]))/2` and `Y[k] = −i·(Z[k] − conj(Z[n−k]))/2`
/// and takes their moduli; the redundant upper half is never
/// materialized. Each half matches its stream's own transform up to
/// rounding in the split (≲1e-9 for typical sensor magnitudes), not bit
/// for bit, and the same inputs give the same bits on every run and
/// thread.
pub fn real_pair_magnitudes_into(buf: &[Complex], mag_x: &mut Vec<f64>, mag_y: &mut Vec<f64>) {
    let n = buf.len();
    assert!(n >= 1, "spectrum needs at least one bin");
    let half = (n / 2 + 1).min(n);
    mag_x.clear();
    mag_y.clear();
    mag_x.reserve(half);
    mag_y.reserve(half);
    for k in 0..half {
        let z = buf[k];
        let zc = buf[(n - k) % n].conj();
        let s = (z + zc).scale(0.5);
        let d = (z - zc).scale(0.5);
        mag_x.push(s.abs());
        // d = i·Y[k], so Y[k] = −i·d.
        mag_y.push(Complex::new(d.im, -d.re).abs());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::hann_table;
    use srtd_runtime::rng::Rng;
    use srtd_runtime::{prop, prop_assert};

    /// The O(n²) definition every fast path is checked against.
    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    acc += v * Complex::from_angle(ang);
                }
                acc
            })
            .collect()
    }

    /// The naive DFT of `x + iy`, both zero-padded to `n`.
    fn naive_pair_dft(x: &[f64], y: &[f64], n: usize) -> Vec<Complex> {
        let packed: Vec<Complex> = (0..n)
            .map(|i| {
                Complex::new(
                    x.get(i).copied().unwrap_or(0.0),
                    y.get(i).copied().unwrap_or(0.0),
                )
            })
            .collect();
        naive_dft(&packed)
    }

    fn single(x: &[f64]) -> Vec<Complex> {
        let mut buf = Vec::new();
        fft_windowed_real_into(&mut buf, x, None);
        buf
    }

    #[test]
    fn pair_load_matches_naive_dft_of_x_plus_iy() {
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).sin()).collect();
        let y: Vec<f64> = (0..16).map(|i| (i as f64 * 1.3).cos()).collect();
        let mut fast = Vec::new();
        fft_windowed_real_pair_into(&mut fast, &x, None, &y, None);
        let slow = naive_pair_dft(&x, &y, 16);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((*a - *b).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    /// Both loaders equal the naive DFT on random lengths, windowed or
    /// not (the window multiplies before the transform).
    #[test]
    fn fused_loaders_match_naive_dft() {
        prop::check(
            |rng| {
                let lx = rng.gen_range(0usize..70);
                let ly = rng.gen_range(0usize..70);
                (
                    prop::vec_with(rng, lx..lx + 1, |r| r.gen_range(-1e3f64..1e3)),
                    prop::vec_with(rng, ly..ly + 1, |r| r.gen_range(-1e3f64..1e3)),
                    rng.gen_range(0u32..2) == 1,
                )
            },
            |(x, y, windowed)| {
                let (tx, ty) = if *windowed {
                    (hann_table(x.len()), hann_table(y.len()))
                } else {
                    (None, None)
                };
                let apply = |s: &[f64], t: &Option<Arc<Vec<f64>>>| -> Vec<f64> {
                    match t {
                        Some(t) => s.iter().zip(t.iter()).map(|(v, c)| v * c).collect(),
                        None => s.to_vec(),
                    }
                };
                let (wx, wy) = (apply(x, &tx), apply(y, &ty));
                let n = next_power_of_two(x.len().max(y.len()));
                let scale = x.iter().chain(y).fold(1.0f64, |m, &v| m.max(v.abs()));
                let mut pair = Vec::new();
                fft_windowed_real_pair_into(
                    &mut pair,
                    x,
                    tx.as_ref().map(|t| t.as_slice()),
                    y,
                    ty.as_ref().map(|t| t.as_slice()),
                );
                for (got, want) in pair.iter().zip(naive_pair_dft(&wx, &wy, n)) {
                    prop_assert!((*got - want).abs() < 1e-9 * scale * n as f64);
                }
                let mut lone = Vec::new();
                fft_windowed_real_into(&mut lone, x, tx.as_ref().map(|t| t.as_slice()));
                let m = next_power_of_two(x.len());
                prop_assert!(lone.len() == m);
                for (got, want) in lone.iter().zip(naive_pair_dft(&wx, &[], m)) {
                    prop_assert!((*got - want).abs() < 1e-9 * scale * m as f64);
                }
                Ok(())
            },
        );
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![0.0; 8];
        x[0] = 1.0;
        for z in &single(&x) {
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_concentrates_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k0 as f64 * i as f64 / n as f64).cos())
            .collect();
        let mags: Vec<f64> = single(&x).iter().map(|z| z.abs()).collect();
        let peak = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(peak == k0 || peak == n - k0);
        assert!((mags[k0] - n as f64 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(single(&[]), vec![Complex::ZERO]);
        assert_eq!(single(&[3.0]), vec![Complex::real(3.0)]);
    }

    /// Parseval: Σ|x|² = (1/N) Σ|X|² for power-of-two inputs.
    #[test]
    fn parseval() {
        prop::check(
            |rng| prop::vec_with(rng, 1..7, |r| r.gen_range(-1e2f64..1e2)),
            |xs| {
                let n = 64usize;
                let x: Vec<f64> = xs.iter().cycle().take(n).copied().collect();
                let spec = single(&x);
                let time_energy: f64 = x.iter().map(|v| v * v).sum();
                let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
                prop_assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0));
                Ok(())
            },
        );
    }

    /// The two-for-one split matches each stream's own transform to high
    /// precision, on equal and unequal input lengths.
    #[test]
    fn real_pair_split_matches_single_transforms() {
        prop::check(
            |rng| {
                let lx = rng.gen_range(1usize..130);
                let ly = if rng.gen_range(0u32..2) == 0 {
                    lx
                } else {
                    rng.gen_range(1usize..130)
                };
                (
                    prop::vec_with(rng, lx..lx + 1, |r| r.gen_range(-1e3f64..1e3)),
                    prop::vec_with(rng, ly..ly + 1, |r| r.gen_range(-1e3f64..1e3)),
                )
            },
            |(x, y)| {
                let mut buf = Vec::new();
                fft_windowed_real_pair_into(&mut buf, x, None, y, None);
                let (mut mag_x, mut mag_y) = (Vec::new(), Vec::new());
                real_pair_magnitudes_into(&buf, &mut mag_x, &mut mag_y);
                let n = buf.len();
                let half = n / 2 + 1;
                prop_assert!(mag_x.len() == half && mag_y.len() == half);
                // Reference: each stream padded to the shared length.
                let reference = |s: &[f64]| {
                    let mut padded = s.to_vec();
                    padded.resize(n, 0.0);
                    single(&padded)
                };
                let scale = x.iter().chain(y).fold(1.0f64, |m, &v| m.max(v.abs()));
                for (got, want) in mag_x
                    .iter()
                    .zip(reference(x))
                    .chain(mag_y.iter().zip(reference(y)))
                {
                    prop_assert!(
                        (got - want.abs()).abs() < 1e-9 * scale * n as f64,
                        "{got} vs {}",
                        want.abs()
                    );
                }
                Ok(())
            },
        );
    }

    /// A zero lane in, a zero magnitude spectrum out, and the other lane
    /// matches its single transform.
    #[test]
    fn real_pair_zero_lane_is_zero() {
        let x = [1.0, -2.0, 3.0, 0.5, -0.25];
        let mut buf = Vec::new();
        fft_windowed_real_pair_into(&mut buf, &x, None, &[], None);
        let (mut mag_x, mut mag_y) = (Vec::new(), Vec::new());
        real_pair_magnitudes_into(&buf, &mut mag_x, &mut mag_y);
        for (a, b) in mag_x.iter().zip(single(&x)) {
            assert!((a - b.abs()).abs() < 1e-12, "{a} vs {b:?}");
        }
        assert!(mag_y.iter().all(|m| m.abs() < 1e-12));
    }

    /// Same inputs give the same bits, run after run.
    #[test]
    fn real_pair_is_deterministic() {
        let x: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..100).map(|i| (i as f64 * 0.91).cos()).collect();
        let run = || {
            let mut buf = Vec::new();
            fft_windowed_real_pair_into(&mut buf, &x, None, &y, None);
            let (mut mag_x, mut mag_y) = (Vec::new(), Vec::new());
            real_pair_magnitudes_into(&buf, &mut mag_x, &mut mag_y);
            mag_x
                .iter()
                .chain(&mag_y)
                .map(|m| m.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// The fused loader is **bit-identical** to windowing a copy, packing
    /// it, permuting by bit reversal in place and running the same
    /// butterflies, with equal, unequal and empty stream lengths.
    #[test]
    fn fused_pair_load_is_bit_identical_to_copying_path() {
        prop::check(
            |rng| {
                let lx = rng.gen_range(0usize..130);
                let ly = rng.gen_range(0usize..130);
                (
                    prop::vec_with(rng, lx..lx + 1, |r| r.gen_range(-1e3f64..1e3)),
                    prop::vec_with(rng, ly..ly + 1, |r| r.gen_range(-1e3f64..1e3)),
                )
            },
            |(x, y)| {
                let (tx, ty) = (hann_table(x.len()), hann_table(y.len()));
                let n = next_power_of_two(x.len().max(y.len()));
                let mut want = vec![Complex::ZERO; n];
                for (i, &v) in x.iter().enumerate() {
                    want[i].re = tx.as_ref().map_or(v, |t| v * t[i]);
                }
                for (i, &v) in y.iter().enumerate() {
                    want[i].im = ty.as_ref().map_or(v, |t| v * t[i]);
                }
                let bits = n.trailing_zeros();
                for i in 0..n {
                    let j = if n > 1 {
                        i.reverse_bits() >> (usize::BITS - bits)
                    } else {
                        i
                    };
                    if i < j {
                        want.swap(i, j);
                    }
                }
                butterflies(&mut want);
                let mut got = vec![Complex::new(f64::NAN, 1e300); 3];
                fft_windowed_real_pair_into(
                    &mut got,
                    x,
                    tx.as_ref().map(|t| t.as_slice()),
                    y,
                    ty.as_ref().map(|t| t.as_slice()),
                );
                prop_assert!(got.len() == n);
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!(g.re.to_bits() == w.re.to_bits());
                    prop_assert!(g.im.to_bits() == w.im.to_bits());
                }
                Ok(())
            },
        );
    }

    /// Recycled buffers carrying garbage from a previous (longer) job do
    /// not affect the fused transforms: the loaders overwrite every slot.
    #[test]
    fn fused_loaders_fully_overwrite_recycled_buffers() {
        let x: Vec<f64> = (0..50).map(|i| (i as f64 * 0.61).sin()).collect();
        let mut clean = Vec::new();
        fft_windowed_real_into(&mut clean, &x, None);
        let mut dirty = vec![Complex::new(f64::NAN, 1e300); 1024];
        fft_windowed_real_into(&mut dirty, &x, None);
        assert_eq!(dirty.len(), clean.len());
        for (a, b) in dirty.iter().zip(&clean) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    /// Linearity of the transform.
    #[test]
    fn linearity() {
        prop::check(
            |rng| {
                (
                    prop::vec_with(rng, 16..17, |r| r.gen_range(-10f64..10.0)),
                    prop::vec_with(rng, 16..17, |r| r.gen_range(-10f64..10.0)),
                    rng.gen_range(-3f64..3.0),
                )
            },
            |(xs, ys, a)| {
                let a = *a;
                let sum: Vec<f64> = xs.iter().zip(ys).map(|(x, y)| a * x + y).collect();
                let (fs, fx, fy) = (single(&sum), single(xs), single(ys));
                for k in 0..fs.len() {
                    let want = fx[k].scale(a) + fy[k];
                    prop_assert!((fs[k] - want).abs() < 1e-8);
                }
                Ok(())
            },
        );
    }
}
