"""MOCHA-shaped inputs for the benchmark, generated from a seed.

Two speakers, each with ``.lab`` alignments of 20-40 inventory phones on the
10 ms grid between boundary silences, and 500 Hz EST tracks.  The six
articulatory parameters of a track are a per-speaker affine image of the
utterance's linear-interpolation trajectory, embedded in the 12 coil channels
the way ``phonotraj.cli.generate_synthetic`` embeds them.  The trajectory is
sampled one 10 ms frame ahead of the track, as in that generator, so that
after decimation track frame i pairs with trajectory frame i (which sits at
(i + 1) / 100 s).  ``generate_synthetic`` itself writes only 100 Hz tracks of
3-8 phones from a random table, so it is not used.

The seed picks the phones, the speakers' maps and the order of phone counts,
phone durations and silences, whose multisets are fixed: every seed gives the
same amount of work.

The ground-truth parameters of every utterance at 100 Hz, cropped to its
trimmed span, are saved next to the tracks for the EMA check.

Usage: python3 perfbench/inputs.py --workload NAME --seed N --out DIR [--smoke]
"""
from __future__ import annotations

import argparse
import os
from pathlib import Path

import numpy as np

from phonotraj import InterpMethod, PhoneSegmentation, Phone, build_featural, get_table, synthesize
from phonotraj.ema import CHANNELS, EmaRecord, write_est_track

from workloads import (EMA_RATE, FEATURE_SET, PHONE_FRAMES, PHONES_PER_UTTERANCE,
                       SILENCE_FRAMES, SPEAKERS, workload)

# Coil geometry of generate_synthetic: the lower-incisor axis and the group
# axes satisfy guided PCA's largest-loading-positive convention.
_JAW_AXIS = np.array([0.6, 0.8])
_GROUP_AXES = {
    "tb": np.array([0.8, -0.6]),
    "td": np.array([-0.6, 0.8]),
    "tt": np.array([0.8, 0.6]),
    "ul": np.array([4.0, 1.0]) / np.sqrt(17.0),
}
_IDX = {name: i for i, name in enumerate(CHANNELS)}


def embed_channels(params: np.ndarray, beta: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The 12 coil channels carrying the 6 parameters (columns of ``params``)."""
    channels = np.tile(offsets, (params.shape[0], 1))
    jaw = params[:, 0]
    channels[:, _IDX["li_x"]] += jaw * _JAW_AXIS[0]
    channels[:, _IDX["li_y"]] += jaw * _JAW_AXIS[1]
    for gi, g in enumerate(("tb", "td", "tt", "ul"), start=1):
        ax = _GROUP_AXES[g]
        for c, a in ((f"{g}_x", ax[0]), (f"{g}_y", ax[1])):
            channels[:, _IDX[c]] += beta[_IDX[c]] * jaw + params[:, gi] * a
    channels[:, _IDX["ll_x"]] += beta[_IDX["ll_x"]] * jaw
    channels[:, _IDX["ll_y"]] += beta[_IDX["ll_y"]] * jaw + params[:, 5]
    return channels


def generate(root: Path, name: str, seed: int, smoke: bool = False) -> list[Path]:
    """Write the inputs of workload ``name`` under ``root``; returns the files written."""
    w = workload(name, smoke)
    table = get_table(FEATURE_SET)
    phones = [p for p in table.inventory if p != "sil"]
    rng = np.random.default_rng([seed, w.utterances])
    decim = EMA_RATE // 100
    written = []
    for speaker in SPEAKERS:
        spk_dir = root / speaker
        spk_dir.mkdir(parents=True, exist_ok=True)
        A = rng.normal(0.0, 0.5, size=(6, table.dimension)) / np.sqrt(table.dimension / 10)
        b = rng.normal(0.0, 0.5, size=6)
        beta = rng.normal(0.0, 0.3, size=len(CHANNELS))
        offsets = rng.normal(0.0, 1.0, size=len(CHANNELS))
        # Fixed multisets, shuffled by the seed: every seed gives the same
        # phone count, speech frames and silence frames per speaker.
        ks = np.round(np.linspace(*PHONES_PER_UTTERANCE, w.utterances)).astype(int)
        durs = np.resize(np.arange(PHONE_FRAMES[0], PHONE_FRAMES[1] + 1), ks.sum())
        sils = np.resize(np.arange(SILENCE_FRAMES[0], SILENCE_FRAMES[1] + 1), 2 * w.utterances)
        for a in (ks, durs, sils):
            rng.shuffle(a)
        starts = np.concatenate([[0], np.cumsum(ks)])
        truth = {}
        for u in range(w.utterances):
            utt = f"{speaker}_{u:03d}"
            k = int(ks[u])
            frames = durs[starts[u] : starts[u + 1]]
            lead, tail = int(sils[2 * u]), int(sils[2 * u + 1])
            names = [phones[i] for i in rng.integers(len(phones), size=k)]
            edges = np.concatenate([[0], np.cumsum(frames)])  # in 10 ms frames
            n_speech = int(edges[-1])

            lines = [f"0.000000 {lead / 100:.6f} sil"]
            lines += [f"{(lead + edges[i]) / 100:.6f} {(lead + edges[i + 1]) / 100:.6f} {ph}"
                      for i, ph in enumerate(names)]
            total = lead + n_speech + tail
            lines.append(f"{(lead + n_speech) / 100:.6f} {total / 100:.6f} sil")
            path = spk_dir / f"{utt}.lab"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)

            seg = PhoneSegmentation(utt, tuple(
                Phone(ph, edges[i] / 100, edges[i + 1] / 100) for i, ph in enumerate(names)
            ), offset=lead / 100)
            # Every kink of the linear trajectory (a phone midpoint) lies on
            # the 5 ms grid, so the 200 Hz synthesis resamples exactly to 500 Hz.
            traj = synthesize(build_featural(seg, table), InterpMethod.LINEAR, 200.0)
            knots = np.vstack([np.zeros(table.dimension), traj.frames]) @ A.T + b
            # Track sample j carries the parameters at j / rate - lead + 10 ms;
            # outside the speech span the trajectory is the zero target.
            r = (np.arange(total * decim) - lead * decim) / EMA_RATE + 0.01
            params = np.tile(b, (r.size, 1))
            inside = (r >= 0) & (r <= n_speech / 100)
            for c in range(6):
                params[inside, c] = np.interp(r[inside], np.arange(knots.shape[0]) / 200,
                                              knots[:, c])
            path = spk_dir / f"{utt}.ema"
            write_est_track(path, EmaRecord(utt, EMA_RATE, embed_channels(params, beta, offsets)))
            written.append(path)
            truth[utt] = params[lead * decim : (lead + n_speech) * decim : decim]
        path = root / f"truth-{speaker}.npz"
        np.savez(path, **truth)
        written.append(path)
    return written


def sync(paths) -> None:
    """Flush the written files to disk so their writeback stays out of the timings."""
    for p in paths:
        fd = os.open(p, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    sync(generate(Path(args.out), args.workload, args.seed, args.smoke))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
