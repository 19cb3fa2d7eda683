"""Workload definitions: databases, request streams and write streams.

Everything here is a pure function of the workload name and the seed.
The server process calls :func:`build_portal_db` to set up the
database it serves; the oracle host (a second server process built the
same way) calls :func:`generate_plan` to derive the requests the load
generator sends.  The server only ever sees the generated SQL.

Requests are plain JSON-able dicts::

    {"op": "read" | "write", "user": ..., "sql": ..., "mode": ...,
     "kind": ..., "key": [...]}

``kind`` and ``key`` identify writes for the final-state check: every
write touches a key no other write of the run touches, so the order in
which concurrent writes land cannot change the final state.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Optional

from repro.workloads.queries import student_query_mix
from repro.workloads.university import UniversityConfig, build_university

#: update-authorization policies the benchmark declares (paper §4.4):
#: students register and drop themselves, the registrar edits grades
#: and retires courses
POLICY_SQL = """
authorize insert on Registered where Registered.student_id = $user_id;
authorize delete on Registered where Registered.student_id = $user_id;
authorize update on Grades(grade) where $user_id = 'registrar';
authorize delete on Courses where $user_id = 'registrar';
"""

#: Truman-model policy: base tables silently replaced by the user's views
TRUMAN_VIEWS = (("Grades", "MyGrades"), ("Registered", "MyRegistrations"))

REGISTRAR = "registrar"

#: prefix of the unreferenced courses the FK RESTRICT deletes retire
TEMP_PREFIX = "X"

#: open-mode control queries (the E13 mix's unenforced share)
OPEN_CONTROLS = (
    "select count(*) from Courses",
    "select count(*) from Students",
)
WRITE_OPEN_CONTROLS = ("select count(*) from Students",)

#: write kinds in their shares: the cheap register, then FK-checked
#: course deletes, grade updates and drops (both full scans).  With
#: these shares the median write is a grade update (a third into their
#: band) and the p90 a drop, each inside one kind's costs rather than
#: between two kinds.
WRITE_BLOCK = ("register",) * 2 + ("drop",) * 2 + ("grade",) * 3 + ("fk_delete",)

#: access-control modes of reads in E13's shares: half Non-Truman, a
#: quarter Truman, a quarter unenforced
MODE_BLOCK = ("non-truman", "non-truman", "truman", "open")

#: reads of each Non-Truman and Truman block take every query shape of
#: ``student_query_mix`` (one per generator) once, except that
#: * the two C3 shapes count ``PortalSpec.c3_weight`` times (six by
#:   default): conditional validity checked with probes is the mechanism
#:   the workloads exist to exercise, and at this share portal_cold's
#:   gated p90 falls inside the probed C3 costs rather than on their
#:   edge.  On portal_hot the course average is served from the decision
#:   cache and only the classmates'-grades shape may need probes, and
#:   whether it does depends on the seed's data, so there C3 counts once
#:   and the p90 falls among the cache hits at every seed;
#: * denied shapes count twice, so that portal_cold's serial phase holds
#:   the 20 denials deny_cpu_p50_ms needs with room to spare (an
#:   "unauthorized" read of a classmate's grades is sometimes
#:   conditionally valid)
SHAPE_WEIGHTS = {"C3": 6, "misleading": 2, "unauthorized": 2}


@dataclass(frozen=True)
class PortalSpec:
    """One wire workload over the university schema."""

    name: str
    students: int
    #: readers drawn from a fixed set of this many students; None = all
    hot_users: Optional[int]
    #: serve from a durable data directory (``group`` sync policy)
    durable: bool
    #: offered rate of the open-loop phase (operations per second)
    rate: float
    #: share of open-loop operations that are writes, in tenths
    write_share: float
    #: share of --seconds the open loop lasts
    open_frac: float
    #: unreferenced courses created at set-up for FK RESTRICT deletes
    temp_courses: int
    #: requests of the serial, saturation and single-writer phases per
    #: second of --seconds.  The phases run a fixed number of requests,
    #: not for a fixed time, so that every run at a seed measures the
    #: same requests however fast the program is; the rates make the
    #: whole run last about --seconds on a 2-vCPU VM.
    serial_per_s: float
    saturation_per_s: float
    write_per_s: float = 0.0
    #: warm-up requests for workloads without a hot set
    warmup_reads: int = 0
    #: reads restricted to answers no write of the run can change
    write_stable_reads: bool = False
    #: grant/revoke cycles of the ReBAC tuple churn after the wire phases
    rebac_cycles: int = 0
    #: weight of each C3 shape in a block of reads (``SHAPE_WEIGHTS``)
    c3_weight: int = 6


SPECS = {
    spec.name: spec
    for spec in (
        PortalSpec(
            name="portal_hot",
            students=200,
            hot_users=8,
            durable=False,
            rate=60.0,
            write_share=0.0,
            open_frac=0.2,
            temp_courses=100,
            serial_per_s=50.0,
            saturation_per_s=45.0,
            write_per_s=25.0,
            c3_weight=1,
        ),
        PortalSpec(
            name="portal_cold",
            students=2000,
            hot_users=None,
            durable=False,
            rate=12.0,
            write_share=0.0,
            open_frac=0.1,
            temp_courses=60,
            serial_per_s=24.0,
            saturation_per_s=10.0,
            write_per_s=13.0,
            warmup_reads=30,
        ),
        PortalSpec(
            name="portal_write",
            students=2000,
            hot_users=8,
            durable=True,
            rate=25.0,
            write_share=0.4,
            open_frac=0.2,
            temp_courses=200,
            serial_per_s=38.0,
            saturation_per_s=21.0,
            write_stable_reads=True,
            rebac_cycles=24,
        ),
    )
}


def build_portal_db(spec: PortalSpec, seed: int, data_dir: Optional[str] = None):
    """The database a portal server serves (and the oracle host holds)."""
    db = build_university(UniversityConfig(students=spec.students, seed=seed))
    db.execute_script(POLICY_SQL)
    for table, view in TRUMAN_VIEWS:
        db.set_truman_view(table, view)
    for i in range(spec.temp_courses):
        db.execute(
            f"insert into Courses values ('{temp_course(i)}', 'retired {i}')"
        )
    if data_dir is not None:
        db.save(data_dir)
    return db


def temp_course(i: int) -> str:
    return f"{TEMP_PREFIX}{i:04d}"


class _MixSource:
    """Answers the three lookups ``student_query_mix`` makes from one
    scan of each table, so drawing a mix for each of 2,000 students
    does not scan the database 6,000 times.  Any other statement goes
    to the database unchanged.  Temporary courses are hidden: they are
    benchmark scaffolding, not part of the portal's catalogue."""

    def __init__(self, db):
        self._db = db
        self.courses: dict[str, list[str]] = {}
        for student, course in db.execute(
            "select student_id, course_id from Registered"
        ).rows:
            self.courses.setdefault(student, []).append(course)
        for courses in self.courses.values():
            courses.sort()
        self.students = sorted(
            row[0] for row in db.execute("select student_id from Students").rows
        )
        self.all_courses = sorted(
            row[0]
            for row in db.execute("select course_id from Courses").rows
            if not row[0].startswith(TEMP_PREFIX)
        )

    def execute(self, sql: str, *args, **kwargs):
        registered = "select course_id from Registered where student_id = '"
        others = "select student_id from Students where student_id <> '"
        if sql.startswith(registered):
            user = sql[len(registered):].split("'", 1)[0]
            return _Rows([(c,) for c in self.courses.get(user, [])])
        if sql == "select course_id from Courses order by course_id":
            return _Rows([(c,) for c in self.all_courses])
        if sql.startswith(others):
            user = sql[len(others):].split("'", 1)[0]
            return _Rows([(s,) for s in self.students if s != user])
        return self._db.execute(sql, *args, **kwargs)


class _Rows:
    def __init__(self, rows):
        self.rows = rows


def _read(user, sql, mode, cls=None) -> dict:
    return {"op": "read", "user": user, "sql": sql, "mode": mode, "class": cls}


def query_class(query) -> str:
    """The rule tier of an authorized query, else its label."""
    return query.tier if query.label == "authorized" else query.label


def query_shape(query) -> tuple:
    """(class, SQL with its quoted literals stripped): one shape per
    generator of ``student_query_mix``."""
    return query_class(query), re.sub(r"'[^']*'", "?", query.sql)


class Balanced:
    """Draws from a fixed multiset in shuffled blocks: every block of
    ``len(items)`` draws holds each item exactly its share of times, so
    two seeds differ in order and in which users and literals are drawn,
    not in the proportions of the mix."""

    def __init__(self, items, rng: random.Random):
        self._items = list(items)
        self._rng = rng
        self._block: list = []

    def next(self):
        if not self._block:
            self._block = list(self._items)
            self._rng.shuffle(self._block)
        return self._block.pop()


def _write_stable(query, user: str, hot: set) -> bool:
    """Reads whose decision and answer no write of portal_write moves:
    the reader's own grades, and denials that do not depend on rows the
    writers touch (writers are never hot users)."""
    if query.label == "misleading":
        return True
    if query.label == "unauthorized":
        if "grade < 2.0" in query.sql:
            return True
        other = query.sql.rsplit("'", 2)[-2]
        return other in hot
    return query.tier == "U2" and f"student_id = '{user}'" in query.sql


def _shape_block(source, users: list, stable: bool, c3_weight: int) -> list:
    """Every query shape the mix draws, weighted by ``SHAPE_WEIGHTS``
    (C3 by ``c3_weight``); with ``stable``, only the shapes portal_write's
    writes cannot move."""
    weights = dict(SHAPE_WEIGHTS, C3=c3_weight)
    shapes = set()
    readers = set(users)
    for index, user in enumerate(users[:8]):
        for query in student_query_mix(source, user, count=200, seed=index):
            if not stable or _write_stable(query, user, readers):
                shapes.add(query_shape(query))
    return [
        shape
        for shape in sorted(shapes)
        for _ in range(weights.get(shape[0], 1))
    ]


def _hot_set(source, spec: PortalSpec, rng: random.Random, seed: int):
    """Distinct reads of a bounded set of students, by (mode, shape)."""
    users = sorted(rng.sample(source.students, spec.hot_users))
    hot = set(users)
    groups: dict[tuple, list[dict]] = {}
    seen: set = set()
    for index, user in enumerate(users):
        mix = student_query_mix(source, user, count=40, seed=seed * 131 + index)
        for query in mix:
            if spec.write_stable_reads and not _write_stable(query, user, hot):
                continue
            for mode in ("non-truman", "truman"):
                if (user, query.sql, mode) not in seen:
                    seen.add((user, query.sql, mode))
                    read = _read(user, query.sql, mode, query_class(query))
                    groups.setdefault((mode, query_shape(query)), []).append(read)
    return users, groups


class _WriteStream:
    """Unique-key writes: each draw touches a key no earlier draw did."""

    def __init__(self, db, source, spec, rng: random.Random, exclude: set):
        self.rng = rng
        self.kinds = Balanced(WRITE_BLOCK, rng)
        writers = [s for s in source.students if s not in exclude]
        courses = source.courses
        # every writer keeps its first course, so each stays registered
        self._register = [
            (s, c) for s in writers for c in source.all_courses
            if c not in courses.get(s, ())
        ]
        self._drop = [(s, c) for s in writers for c in courses.get(s, ())[1:]]
        self._grades = sorted(
            (s, c)
            for s, c in db.execute("select student_id, course_id from Grades").rows
            if s not in exclude
        )
        for pairs in (self._register, self._drop, self._grades):
            rng.shuffle(pairs)
        self._temp = [temp_course(i) for i in range(spec.temp_courses)]

    def _write(self, kind, user, key, sql) -> dict:
        return {
            "op": "write", "kind": kind, "user": user, "mode": "non-truman",
            "key": key, "sql": sql,
        }

    def next(self) -> dict:
        kind = self.kinds.next()
        if kind == "fk_delete" and not self._temp:
            kind = "grade"
        if kind == "register":
            student, course = self._register.pop()
            return self._write(
                kind, student, ["Registered", student, course],
                f"insert into Registered values ('{student}', '{course}')",
            )
        if kind == "drop":
            student, course = self._drop.pop()
            return self._write(
                kind, student, ["Registered", student, course],
                f"delete from Registered where student_id = '{student}' "
                f"and course_id = '{course}'",
            )
        if kind == "grade":
            student, course = self._grades.pop()
            grade = round(self.rng.uniform(1.0, 4.0), 1)
            return self._write(
                kind, REGISTRAR, ["Grades", student, course],
                f"update Grades set grade = {grade} where student_id = "
                f"'{student}' and course_id = '{course}'",
            )
        course = self._temp.pop()
        return self._write(
            kind, REGISTRAR, ["Courses", course],
            f"delete from Courses where course_id = '{course}'",
        )


def schedule_count(rate: float, seconds: float) -> int:
    return max(1, int(round(rate * seconds)))


def generate_plan(db, spec: PortalSpec, seed: int, seconds: float) -> dict:
    """Every request of one run, drawn from ``seed``.

    Returns ``warmup`` (set-up reads), ``open`` (the open-loop stream,
    one request per scheduled arrival), ``serial`` (the same mix, for
    the serial phase), ``saturation`` (the closed-loop phase) and
    ``writes`` (the writes-only phase).  Modes, query shapes (per mode) and write kinds
    are drawn in balanced blocks (:class:`Balanced`).
    """
    rng = random.Random(seed)
    source = _MixSource(db)
    modes = Balanced(MODE_BLOCK, rng)
    control_sql = WRITE_OPEN_CONTROLS if spec.write_stable_reads else OPEN_CONTROLS
    controls = Balanced(control_sql, rng)
    open_n = schedule_count(spec.rate, seconds * spec.open_frac)

    if spec.hot_users is not None:
        users, groups = _hot_set(source, spec, rng, seed)
        writes = _WriteStream(db, source, spec, rng, exclude=set(users))

        def pick(mode: str, shape: tuple) -> dict:
            candidates = groups.get((mode, shape))
            if not candidates:  # a shape this hot set never drew
                candidates = [
                    r for (m, s), rs in groups.items()
                    if m == mode and s[0] == shape[0] for r in rs
                ] or [r for (m, _), rs in groups.items() if m == mode for r in rs]
            return rng.choice(candidates)

        warmup = [r for rs in groups.values() for r in rs]
        warmup += [_read(u, sql, "open") for u in users for sql in control_sql]
    else:
        users = source.students
        writes = _WriteStream(db, source, spec, rng, exclude=set())

        def pick(mode: str, shape: tuple) -> dict:
            user = rng.choice(source.students)
            mix = student_query_mix(source, user, count=100, seed=rng.randrange(1 << 30))
            chosen = next((q for q in mix if query_shape(q) == shape), mix[0])
            return _read(user, chosen.sql, mode, query_class(chosen))

    block = _shape_block(source, users, spec.write_stable_reads, spec.c3_weight)
    shapes = {mode: Balanced(block, rng) for mode in ("non-truman", "truman")}

    def next_read() -> dict:
        mode = modes.next()
        if mode == "open":
            return _read(rng.choice(users), controls.next(), mode)
        return pick(mode, shapes[mode].next())

    tenths = round(spec.write_share * 10)
    ops = Balanced(("write",) * tenths + ("read",) * (10 - tenths), rng)

    def next_op() -> dict:
        return writes.next() if ops.next() == "write" else next_read()

    if spec.hot_users is None:
        warmup = [next_read() for _ in range(spec.warmup_reads)]
    open_ops = [next_op() for _ in range(open_n)]
    serial_ops = [next_op() for _ in range(round(spec.serial_per_s * seconds))]
    saturation_ops = [
        next_op() for _ in range(round(spec.saturation_per_s * seconds))
    ]
    write_ops = [writes.next() for _ in range(round(spec.write_per_s * seconds))]
    return {
        "warmup": warmup,
        "open": open_ops,
        "serial": serial_ops,
        "saturation": saturation_ops,
        "writes": write_ops,
    }
