#!/usr/bin/env python3
"""Build a small synthetic corpus and render every artifact the library makes.

Writes profile documents, report tables, and citation-curve charts into an
output directory.  Useful as an end-to-end smoke test and as a source of
example figures.
"""

import argparse
import random
from pathlib import Path

from citemetric import (
    ProfileDocument,
    build_plot_spec,
    collective_report,
    compute_report,
    merge_profiles,
    render_svg,
    synthesize_counts,
    write_points_csv,
    write_profile,
    write_report_table,
)


def demo_documents(seed: int) -> list[ProfileDocument]:
    rng = random.Random(seed)
    heavy = sorted((int(2.0 * rng.paretovariate(1.1)) for _ in range(18)), reverse=True)
    return [
        # a prolific author with one runaway hit
        ProfileDocument("vast", tuple(synthesize_counts(120, 85, 2400, 640)), 28, "demo"),
        # a steady mid-career author
        ProfileDocument("ridge", tuple(synthesize_counts(60, 48, 900, 90)), 14, "demo"),
        # perfectly uniform output, the square profile
        ProfileDocument("block", (25,) * 25, 12, "demo"),
        # heavy-tailed newcomer, counts drawn from a Pareto law
        ProfileDocument("spark", tuple(heavy), 4, "demo"),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo_corpus", help="output directory")
    parser.add_argument("--seed", type=int, default=7, help="seed for the random author")
    args = parser.parse_args(argv)

    out = Path(args.out)
    profiles_dir = out / "profiles"
    profiles_dir.mkdir(parents=True, exist_ok=True)

    documents = demo_documents(args.seed)
    for doc in documents[:-1]:
        (profiles_dir / f"{doc.author_id}.json").write_text(
            write_profile(doc, "json"), encoding="utf-8"
        )
    # the last one goes out as bare counts to exercise the csv reader
    last = documents[-1]
    (profiles_dir / f"{last.author_id}.csv").write_text(
        write_profile(last, "csv"), encoding="utf-8"
    )

    profiles = [doc.to_profile() for doc in documents]
    reports = [compute_report(p) for p in profiles]
    collective = merge_profiles(profiles, label="all")
    total = collective_report(collective)

    (out / "table.csv").write_text(
        write_report_table(reports, "csv", include_kh=True, total=total), encoding="utf-8"
    )
    (out / "table.md").write_text(
        write_report_table(reports, "md", include_kh=True, total=total), encoding="utf-8"
    )

    spec = build_plot_spec(profiles, guides=True, include_g=True)
    (out / "curves.svg").write_bytes(render_svg(spec))
    (out / "curve_points.csv").write_text(write_points_csv(spec), encoding="utf-8")
    overlay = build_plot_spec(profiles + [collective], log_y=True)
    (out / "curves_log.svg").write_bytes(render_svg(overlay))
    (out / "merged.json").write_text(
        write_profile(
            ProfileDocument(collective.merged.author_id, collective.merged.counts), "json"
        ),
        encoding="utf-8",
    )

    merged = collective.merged
    print(f"wrote {len(documents)} profiles and 6 artifacts under {out}/")
    print(f"corpus: {merged.r0} works, {merged.c_sigma} citations, h={total.h}, kh={total.kh:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
