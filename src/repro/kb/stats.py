"""Dataset statistics — reproduces Table I rows for a KBPair."""
from __future__ import annotations

from repro.blocking.tokenize import avg_tokens_per_entity
from repro.kb.schema import KB, KBPair, TYPE_PRED


def kb_stats(kb: KB) -> dict:
    """Per-KB half of a Table I column. Attributes, relations and
    vocabularies (predicate namespace prefixes, 'ns0:a3' -> 'ns0') are
    read from the KB's predicate statistics."""
    preds = kb.predicate_stats
    return {
        "entities": kb.n_entities(),
        "triples": kb.n_triples(),
        "avg_tokens": round(avg_tokens_per_entity(kb), 2),
        "attributes": sum(not r["is_rel"] for r in preds),
        "relations": sum(r["is_rel"] for r in preds),
        "types": kb.types().select("type").distinct().count(),
        "vocabularies": len(
            {r["pred"].split(":")[0] for r in preds if r["pred"] != TYPE_PRED}
        ),
    }


def dataset_stats(pair: KBPair) -> dict:
    """Full Table I column: E1/E2 statistics plus the match count."""
    s1, s2 = kb_stats(pair.kb1), kb_stats(pair.kb2)
    out = {"dataset": pair.name}
    for key in s1:
        out[f"E1 {key}"] = s1[key]
        out[f"E2 {key}"] = s2[key]
    out["matches"] = pair.n_matches()
    return out
