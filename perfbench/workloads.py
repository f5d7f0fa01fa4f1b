"""The three workloads.  Each takes the harness and the import time.

Every input (world, poses, render seeds, synthetic descriptors) is derived
from the run seed, except the fixed mosaic site; the program only receives
those inputs.  Query j of a stream is drawn from its own generator.  On
frame and mosaic its place cycles through the map, and on every workload
its main difficulty axis is stratified over the first ``n_acc`` queries,
so accuracy varies little from one seed to the next.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from radarplace import encoder, synth
from radarplace.placedb import PlaceDB, PlaceRecord
from radarplace.radar import PlatformConfig, RadarConfig

from checks import RankingOracle, check_descriptor, check_history, check_map

K = 10
RCFG = RadarConfig()

# -- frame: single-frame train / map / query at the 64x96 criterion-8 size ---
FRAME_WORLD = dict(n_places=30, range_lo=9.0, heatmap_rows=64, heatmap_cols=96,
                   mosaic_cols=256)
FRAME_VIEWS = ([(h, (0.0, 0.0)) for h in (-10.0, -5.0, 0.0, 5.0, 10.0)]
               + [(0.0, lat) for lat in ((0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5))])
FRAME_TRAIN_PASSES = 2
FRAME_EPOCHS = 2
FRAME_QUERIES = 200
FRAME_REMAP_EVERY = 2  # untraced, one more map op before every 2nd query

# -- mosaic: rotating-platform relative-pose mosaics, untrained encoder -----
MOSAIC_WORLD = dict(n_places=20, range_lo=9.0, heatmap_rows=64, heatmap_cols=96,
                    mosaic_cols=256)
MOSAIC_PLATFORM = PlatformConfig(jitter_std=1.0)
# The mosaic site is fixed and the seed drives the captures (map and query
# render noise, platform jitter, query poses).  With only 20 places a
# seed-drawn site would move recall by +-10% from one seed to the next.
MOSAIC_SITE_SEED = 0
MOSAIC_ENCODER_SEED = 0
MOSAIC_QUERIES = 100
MOSAIC_REMAP_EVERY = 4

# -- db: large synthetic place database, no radar or encoder ---------------
DB_PLACES = 1024
DB_PER_PLACE = 8
DB_DIM = 1024          # descriptor size of a 64x256 mosaic
DB_GROUP = 4           # neighbouring places that look alike
DB_PLACE_SPREAD = 0.15  # place centre distance from its group centre
DB_RECORD_NOISE = 0.3
DB_QUERY_NOISE_MAX = 1.5
DB_SPACING_M = 20.0
DB_QUERIES = 100
DB_BUILDS = 3          # bulk builds before the persist phase
DB_REMAP_EVERY = 2     # a remap on db is a whole bulk build

# tags separating the random streams derived from the seed
WORLD, TRAIN, MAP, QUERY = 1, 2, 3, 4


def _stratified(rng, j: int, n: int) -> float:
    """Fraction in [0, 1): stratum j mod n, jittered within it."""
    return ((j % n) + rng.random()) / n


def _lateral(rng, max_m: float) -> tuple[float, float]:
    r, ang = rng.uniform(0.0, max_m), rng.uniform(0.0, 2 * math.pi)
    return (r * math.cos(ang), r * math.sin(ang))


def _offset(pos, lat):
    return (pos[0] + lat[0], pos[1] + lat[1])


def _mapper(bench, render, weights, shape, times: list):
    """map_one(label, db, record[, oracle]): render (+ mosaic) + encode + add.

    Each call is one op; its time is appended to ``times``.
    """
    def map_one(label, db, record, oracle=None):
        rid, args, pos, heading = record

        def run():
            hm = render(*args)
            desc = encoder.encode(hm, weights)
            db.add(PlaceRecord(rid, desc.values, pos, heading))
            return hm, desc

        def finish(out):
            check_map(out[0].values, shape, "map view")
            check_descriptor(out[1], weights.arch.descriptor_dim)
            if oracle is not None:
                oracle.add(rid, out[1].values, pos)

        _, dt = bench.op(f"{label} {rid}", run, finish)
        if dt is not None:
            times.append(dt)

    return map_one


def _with_remaps(bench, make_op, every: int, remap):
    """Untraced, run ``remap(i)`` before every ``every``-th query.

    Mapping samples then span the whole run, as query samples do, so a
    slow spell of the host moves both alike, not only one of them.
    """
    def wrapped(j):
        if not bench.tracer and j % every == 0:
            remap(j // every)
        return make_op(j)

    return wrapped


def _map_rate(bench, times: list, records_per_op: int = 1) -> None:
    """One over the median op time, so a short stall does not move it."""
    bench.values["map_records_per_s"] = records_per_op / statistics.median(times)


def _view_query(bench, db, oracle, render, weights, shape, pose):
    """make_op for a radar query: pose -> view -> encode -> PlaceDB.query."""
    def make_op(j):
        args, qpos = pose(j)

        def run():
            hm = render(*args)
            desc = encoder.encode(hm, weights)
            return hm, desc, db.query(desc.values, K, query_position=qpos)

        def finish(out):
            hm, desc, res = out
            check_map(hm.values, shape, "query view")
            check_descriptor(desc, weights.arch.descriptor_dim)
            oracle.check(res, desc.values, K, qpos)

        return run, finish

    return make_op


def _view_job(bench, tag, records, render, weights, shape, pose, n_acc, remap_every):
    """Map every record, persist the map, then the query stream."""
    db, times = PlaceDB(), []
    oracle = RankingOracle(weights.arch.descriptor_dim, len(records))
    map_one = _mapper(bench, render, weights, shape, times)
    for record in records:
        map_one("map", db, record, oracle)
    loaded = bench.persist(db, oracle, tag)
    make_op = _with_remaps(
        bench, _view_query(bench, loaded, oracle, render, weights, shape, pose),
        remap_every, lambda i: map_one("remap", PlaceDB(), records[i % len(records)]))
    bench.accuracy(bench.stream(n_acc, make_op))
    _map_rate(bench, times)


def frame(bench, import_s: float) -> None:
    """Criterion-8(a)-style single-frame job: train, map, query."""
    def setup():
        world = synth.build_world(synth.WorldConfig(**FRAME_WORLD, seed=bench.seed_int(WORLD)))
        dataset = synth.training_dataset(
            world, RCFG, max_rot_deg=10.0, max_lat_m=1.0,
            passes=FRAME_TRAIN_PASSES, seed=bench.seed_int(TRAIN),
        )
        return world, dataset

    world, dataset = bench.setup(setup, import_s)
    cfg = encoder.TrainConfig(seed=bench.seed_int(TRAIN, 1), max_epochs=FRAME_EPOCHS)
    trained, train_s = bench.op(
        "train", lambda: encoder.train(dataset, cfg),
        lambda r: check_history(r.history, FRAME_EPOCHS),
    )
    weights = bench.require(trained, "training").weights
    bench.values["train_s"] = train_s

    shape = (world.cfg.heatmap_rows, world.cfg.heatmap_cols)
    map_rng = bench.rng(MAP)
    records = []
    for i, place in enumerate(world.places):
        for heading, lat in FRAME_VIEWS:
            seed = int(map_rng.integers(2**31))
            records.append((len(records), (i, heading, lat, seed),
                            _offset(place.position, lat), heading))

    def render(i, heading, lat, seed):
        return synth.render_view(world, i, RCFG, heading_deg=heading, lateral=lat, seed=seed)

    def pose(j):
        rng = bench.rng(QUERY, j)
        place = j % len(world.places)
        rot = -10.0 + 20.0 * _stratified(rng, j, FRAME_QUERIES)
        lat = _lateral(rng, 1.0)
        seed = int(rng.integers(2**31))
        return (place, rot, lat, seed), _offset(world.places[place].position, lat)

    _view_job(bench, "frame", records, render, weights, shape, pose,
              FRAME_QUERIES, FRAME_REMAP_EVERY)


def mosaic(bench, import_s: float) -> None:
    """Rotating-platform job: relative-pose mosaics, map at heading 0."""
    def setup():
        world = synth.build_world(synth.WorldConfig(**MOSAIC_WORLD, seed=MOSAIC_SITE_SEED))
        arch = encoder.EncoderArch(input_shape=(world.cfg.heatmap_rows, world.cfg.mosaic_cols))
        return world, encoder.init_weights(arch, MOSAIC_ENCODER_SEED)

    world, weights = bench.setup(setup, import_s)
    shape = (world.cfg.heatmap_rows, world.cfg.mosaic_cols)

    def render(i, heading, lat, seed):
        return synth.mosaic_view(world, i, RCFG, MOSAIC_PLATFORM, mode="relpose",
                                 body_heading_deg=heading, lateral=lat, seed=seed)

    map_rng = bench.rng(MAP)
    records = [(i, (i, 0.0, (0.0, 0.0), int(map_rng.integers(2**31))), p.position, 0.0)
               for i, p in enumerate(world.places)]

    def pose(j):
        # the 0-40 deg buckets of synth.evaluate in turn, stratified within
        n_buckets = len(synth.ROTATION_BUCKETS)
        k = j // n_buckets
        lo, hi = synth.ROTATION_BUCKETS[j % n_buckets]
        rng = bench.rng(QUERY, j)
        place = k % len(world.places)
        frac = _stratified(rng, k, MOSAIC_QUERIES // n_buckets)
        rot = (lo + (hi - lo) * frac) * rng.choice([-1.0, 1.0])
        lat = _lateral(rng, 0.5)
        seed = int(rng.integers(2**31))
        return (place, float(rot), lat, seed), _offset(world.places[place].position, lat)

    _view_job(bench, "mosaic", records, render, weights, shape, pose,
              MOSAIC_QUERIES, MOSAIC_REMAP_EVERY)


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def db(bench, import_s: float) -> None:
    """Large place database: bulk add, save, load, then query+add stream."""
    def setup():
        rng = bench.rng(WORLD)
        groups = _unit(rng.standard_normal((DB_PLACES // DB_GROUP, DB_DIM)))
        centres = _unit(np.repeat(groups, DB_GROUP, axis=0)
                        + DB_PLACE_SPREAD * _unit(rng.standard_normal((DB_PLACES, DB_DIM))))
        place_xy = np.stack([np.arange(DB_PLACES) * DB_SPACING_M, np.zeros(DB_PLACES)], 1)
        owner = np.repeat(np.arange(DB_PLACES), DB_PER_PLACE)
        desc = _unit(centres[owner] + DB_RECORD_NOISE
                     * _unit(rng.standard_normal((owner.size, DB_DIM))))
        pos = place_xy[owner] + rng.uniform(-1.0, 1.0, size=(owner.size, 2))
        # float64, as encoder.Descriptor.values reach PlaceDB.add in the pipeline
        return centres, place_xy, desc, [tuple(p) for p in pos]

    centres, place_xy, desc, pos = bench.setup(setup, import_s)
    n = len(desc)

    def build():
        db = PlaceDB()
        for rid in range(n):
            db.add(PlaceRecord(rid, desc[rid], pos[rid], None, "map"))
        return db

    times = []

    def bulk_add():
        built, dt = bench.op(f"bulk add {len(times)}", build, ops=n)
        times.append(dt)
        return bench.require(built, "bulk add")

    for _ in range(bench.repeat(DB_BUILDS)):
        db = bulk_add()

    oracle = RankingOracle(DB_DIM, n + 4 * DB_QUERIES)
    for rid in range(n):
        oracle.add(rid, desc[rid], pos[rid])
    loaded = bench.persist(db, oracle, "db")

    def make_op(j):
        rng = bench.rng(QUERY, j)
        place = int(rng.integers(DB_PLACES))
        noise = DB_QUERY_NOISE_MAX * _stratified(rng, j, DB_QUERIES)
        q = _unit(centres[place] + noise * _unit(rng.standard_normal(DB_DIM)))
        qpos = tuple(place_xy[place] + rng.uniform(-1.0, 1.0, size=2))
        rid = n + j

        def run():
            return (loaded.query(q, K, query_position=qpos),)

        def finish(out):
            oracle.check(out[0], q, K, qpos)
            loaded.add(PlaceRecord(rid, q, qpos, None, "stream"))
            oracle.add(rid, q, qpos)

        return run, finish

    make_op = _with_remaps(bench, make_op, DB_REMAP_EVERY, lambda i: bulk_add())
    bench.accuracy(bench.stream(DB_QUERIES, make_op))
    _map_rate(bench, times, n)
