#!/usr/bin/env python3
"""Model maintenance: "build, analyze and fix the models" (paper §1/§5).

The BBP workflow grows a circuit over months: new neurons are placed,
queries validate the tissue, mis-placed branches get removed — and none
of that work may be lost to a crash.  This example drives the loop
through the engine's declarative mutation API and the durability layer:

1. make the initial circuit durable via ``repro.create(objects, dir)``
   (epoch-0 checkpoint + write-ahead log),
2. insert a new neuron's segments via ``Insert`` batches (one logged,
   atomic epoch per batch),
3. run validation queries (results always exact),
4. fix the model — ``Delete`` a mis-placed branch, ``Move`` a stray
   segment back into place,
5. "crash" (drop the engine without a clean shutdown), then restart via
   ``repro.open(dir)`` — checkpoint + WAL replay restores the exact
   epoch — and re-run the validation to prove nothing was lost.

Run:  python examples/model_maintenance.py
"""

from __future__ import annotations

from tempfile import mkdtemp

import repro
from repro.neuro.circuit import generate_circuit


def exactness_check(engine, label: str) -> list[int]:
    objects = engine.objects
    world = repro.AABB.union_all(o.aabb for o in objects)
    box = repro.AABB.from_center_extent(world.center(), 180.0)
    got = sorted(engine.execute(repro.RangeQuery(box)).payload)
    expected = sorted(o.uid for o in objects if o.aabb.intersects(box))
    assert got == expected, label
    print(f"  [{label}] validation query: {len(got)} segments, exact")
    return got


def main() -> None:
    # Stage 1: the initial model, made durable from the first epoch.
    base = generate_circuit(n_neurons=12, seed=7)
    model_dir = mkdtemp(prefix="repro_model_")
    durable = repro.create(base.segments(), model_dir)
    print(f"initial model: {base.num_neurons} neurons, "
          f"{durable.num_objects:,} segments -> durable in {model_dir}")
    exactness_check(durable, "initial")

    # Stage 2: a new neuron arrives (same column, fresh morphology).
    grown = generate_circuit(n_neurons=13, seed=7)
    uid_base = max(o.uid for o in durable.objects) + 1
    inserted = [
        repro.Segment(
            uid=uid_base + i, p0=s.p0, p1=s.p1, radius=s.radius,
            neuron_id=s.neuron_id, branch_id=s.branch_id, order=s.order,
        )
        for i, s in enumerate(
            s for s in grown.segments() if s.neuron_id == 12
        )
    ]
    result = durable.apply_many([repro.Insert(s) for s in inserted])
    print(f"\ninserted neuron 12: +{result.stats.inserts} segments as one "
          f"logged batch (epoch {result.stats.epoch})")
    exactness_check(durable, "after insert")

    # Stage 3: fix the model — delete one mis-placed branch, nudge one
    # stray segment back toward the column with a Move.
    victim_branch = inserted[0].branch_id
    victims = [s for s in inserted if s.branch_id == victim_branch]
    durable.apply_many([repro.Delete(s.uid) for s in victims])
    stray = next(s for s in inserted if s.branch_id != victim_branch)
    nudged = repro.Segment(
        uid=stray.uid,
        p0=stray.p0 * 0.98,
        p1=stray.p1 * 0.98,
        radius=stray.radius,
        neuron_id=stray.neuron_id, branch_id=stray.branch_id, order=stray.order,
    )
    durable.apply(repro.Move(stray.uid, nudged))
    print(f"\nfixed the model: -{len(victims)} segments (branch {victim_branch}), "
          f"1 segment moved; epoch {durable.epoch}")
    exactness_check(durable, "after fix")

    # Stage 4: checkpoint, keep editing... and then the process dies.
    repro.checkpoint(model_dir, durable)
    durable.apply(repro.Delete(inserted[-1].uid))
    before_crash = exactness_check(durable, "after one more edit")
    epoch_before, count_before = durable.epoch, durable.num_objects
    del durable  # SIGKILL stand-in: no close(), no flushing ceremony

    # Stage 5: restart. Checkpoint + WAL replay restore the exact epoch.
    restored = repro.open(model_dir)
    print(f"\nrestart: recovered epoch {restored.epoch} with "
          f"{restored.num_objects:,} segments "
          f"(expected epoch {epoch_before}, {count_before:,} segments)")
    assert restored.epoch == epoch_before
    assert restored.num_objects == count_before
    after_crash = exactness_check(restored, "after restart")
    assert after_crash == before_crash
    print("  restart answers match the pre-crash engine exactly")

    # Time travel: re-open the model as it was before the fixes.
    rerun = repro.open(model_dir, durable=False, at_epoch=1)
    print(f"\ntime travel to epoch 1: {rerun.num_objects:,} segments "
          f"(the just-grown model, branch still mis-placed)")
    restored.close()


if __name__ == "__main__":
    main()
