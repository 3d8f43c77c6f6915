"""Train the Takagi-Sugeno network with hybrid learning and watch it converge.

Shows the 81-rule grid partition, the per-epoch RMSE curve (error measured
right after the least-squares consequent step), and how the gaussian
membership functions move during training.

Run:  python demos/demo_anfis.py
"""

from softdss import tace
from softdss.anfis import AnfisModel, anfis_train, forward_batch
from softdss.bench import unit_variables

master = tace.normalize(tace.generate(7, 1000))
train, test = tace.split(master, 0.9, seed=1)

model = AnfisModel.grid(unit_variables(3, "gaussian"))
print(f"grid partition: {len(model.inputs)} inputs x 3 MFs -> {model.n_rules} rules, "
      f"{model.consequents.size} linear consequent parameters (all starting at zero)")

before = [mf.params for mf in model.inputs[0].mfs]

model, report = anfis_train(
    model, (train.x, train.y), (test.x, test.y), epochs=15, mode="hybrid"
)

print("\nepoch  train RMSE")
for epoch, rmse in enumerate(report.rmse_per_epoch, start=1):
    print(f"{epoch:5d}  {rmse:.6f}")
print(f"\nfinal train RMSE {report.final_train_rmse:.6f}  "
      f"test RMSE {report.final_test_rmse:.6f}  ({report.wall_time:.1f}s)")

print("\n'fuel' membership functions (center, sigma), before -> after:")
for (c0, s0), mf in zip(before, model.inputs[0].mfs):
    c1, s1 = mf.params
    print(f"  ({c0:.3f}, {s0:.3f}) -> ({c1:.3f}, {s1:.3f})")

scores, _ = forward_batch(model, tace.normalize_inputs([500, 30, 60, 4]))
print(f"\nanchor situation (500 l, 30 min, 60%, 4 pts) -> "
      f"decision score {float(tace.denormalize_score(scores[0])):.2f} (expert says 5)")
