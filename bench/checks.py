"""Output checks for benchmark cases.

``check(expect, code, stdout, stderr)`` returns None when a finished child
gave the expected answer, and otherwise a short reason.  The expectations
come from ``workloads.py`` and never from the program under test.  Only the
standard library is used, so the benchmark process stays small.
"""

import hashlib
import json


def cyclic_group_homology(n, k):
    """H_k(BZ/n; Z) as (betti, torsion): Z, then Z/n in odd degrees, 0 in
    even positive degrees."""
    if k == 0:
        return 1, []
    return (0, [n]) if k % 2 else (0, [])


def _payload(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _verdict(doc):
    if not isinstance(doc, dict):
        return "stdout is not a JSON object"
    if doc.get("ok") is not True:
        return "payload says ok != true"
    if doc.get("witnesses"):
        return "payload lists witnesses"
    return None


def _degrees(doc, d, expected):
    """Both sides of each compared degree 0..d match ``expected(k)``."""
    degrees = doc.get("degrees") or []
    if [c.get("degree") for c in degrees] != list(range(d + 1)):
        return f"degrees compared are not 0..{d}"
    for c in degrees:
        if c.get("isomorphism") is not True:
            return f"degree {c['degree']} is not an isomorphism"
        want = expected(c["degree"])
        for side in ("source", "target"):
            group = c.get(side) or {}
            got = (group.get("betti"), group.get("torsion"))
            if want is not None and got != want:
                return f"H_{c['degree']} {side} is {got}, expected {want}"
    return None


def check(expect, code, stdout, stderr):
    kind = expect["kind"]
    if kind == "refused":
        if code != 2:
            return f"exit code {code}, expected 2"
        if stdout:
            return "refused case printed to stdout"
        lines = stderr.strip().splitlines()
        error = _payload(lines[-1]) if lines else None
        if not isinstance(error, dict) or "error" not in error:
            return "stderr does not end with a JSON error"
        return None
    if code != 0:
        return f"exit code {code}, expected 0"
    if kind == "digest":
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        return None if digest == expect["sha256"] else f"stdout sha256 {digest[:16]}..."
    doc = _payload(stdout)
    if kind == "nerve-objects":
        cells = doc.get("cells") if isinstance(doc, dict) else None
        if cells != [expect["objects"]]:
            return f"nerve cells {cells}, expected [{expect['objects']}]"
        return None
    reason = _verdict(doc)
    if reason:
        return reason
    if kind == "cyclic-homology":
        n = expect["n"]
        return _degrees(doc, expect["d"], lambda k: cyclic_group_homology(n, k))
    if kind == "fibers":
        got = doc.get("fibers_checked")
        return None if got == expect["count"] else f"fibers_checked {got}, expected {expect['count']}"
    if kind == "lemma42":
        for key in ("product_counts", "nondegenerate_counts"):
            if doc.get(key) != expect["counts"]:
                return f"{key} {doc.get(key)}, expected {expect['counts']}"
        return None
    if kind == "blowup":
        comps = expect["components"]
        return _degrees(doc, expect["d"], lambda k: (comps, []) if k == 0 else None)
    if kind == "ok":
        return None
    raise ValueError(f"unknown expectation kind {kind!r}")
