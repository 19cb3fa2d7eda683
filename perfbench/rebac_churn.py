"""ReBAC tuple churn: policy writes through ``RebacManager``, each one
checked by a permission-checked read through ``EnforcementGateway``.

Tuple writes have no wire frame, so this phase runs inside a server
process, on a collaboration database (``build_collab``) of its own,
built from the workload seed.  Each cycle grants a fresh user the
viewer relation on one document, reads the document as that user,
then takes the grant away and reads again.  Every fourth grant has
already lapsed when it is written: the compiled views must refuse it,
and the expiry sweep (``expire_tuples``) removes it instead of a
delete.

The gate: a live grant's read returns exactly the document's title; a
lapsed or removed grant's read is rejected; the sweep removes exactly
the lapsed tuple; and after the churn the tuple store and the compiled
``RebacGrants`` rows equal their state before it.
"""

from __future__ import annotations

import random

from checks import rows_digest

def build(seed: int):
    """The collaboration database the churn writes to."""
    from repro.workloads.collab import CollabConfig, build_collab

    config = CollabConfig(seed=seed)
    return build_collab(config), config.base_time


def _grant_rows(db) -> str:
    return rows_digest(db.execute("select * from RebacGrants").rows)


def churn(db, now: float, seed: int, cycles: int) -> dict:
    """Run ``cycles`` grant/read/revoke/read cycles at session time
    ``now``; returns the number of tuple writes and the gate's
    violations."""
    from repro.service import EnforcementGateway, QueryRequest

    manager = db.rebac
    rng = random.Random(seed)
    titles = dict(db.execute("select doc_id, title from Documents").rows)
    docs = sorted(titles)
    tuples_before = sorted(t.key() for t in manager.store.snapshot())
    grants_before = _grant_rows(db)
    violations: list[str] = []
    writes = 0
    gateway = EnforcementGateway(db)

    def read(user: str, doc: str):
        return gateway.execute(
            QueryRequest(
                user=user,
                sql=f"select title from Documents where doc_id = '{doc}'",
                params={"time": now},
            )
        )

    try:
        for cycle in range(cycles):
            doc = rng.choice(docs)
            user = f"churn{seed}_{cycle}"
            lapsed = cycle % 4 == 3
            expires = now - 1.0 if lapsed else (
                None if cycle % 2 else now + rng.uniform(1.0, 1000.0)
            )
            manager.write_tuple(f"document:{doc}", "viewer", f"user:{user}",
                                expires_at=expires)
            writes += 1
            granted = read(user, doc)
            if lapsed:
                if granted.status.value != "rejected":
                    violations.append(
                        f"lapsed grant of {doc} to {user}: {granted.status.value}"
                    )
                swept = manager.expire_tuples(now=now)
                writes += len(swept)
                if [t.subject for t in swept] != [f"user:{user}"]:
                    violations.append(
                        f"expiry sweep removed {[t.key() for t in swept]}, "
                        f"expected only {user}'s grant"
                    )
            else:
                if not granted.ok or granted.result.rows != [(titles[doc],)]:
                    violations.append(
                        f"granted read of {doc} by {user} returned "
                        f"{granted.status.value}"
                    )
                manager.delete_tuple(f"document:{doc}", "viewer", f"user:{user}")
                writes += 1
            revoked = read(user, doc)
            if revoked.status.value != "rejected":
                violations.append(
                    f"revoked grant of {doc} to {user}: {revoked.status.value}"
                )
    finally:
        gateway.shutdown(drain=True, timeout=30)
    if sorted(t.key() for t in manager.store.snapshot()) != tuples_before:
        violations.append("tuple store differs from its state before the churn")
    if _grant_rows(db) != grants_before:
        violations.append("RebacGrants rows differ from their state before the churn")
    return {"writes": writes, "violations": violations}
