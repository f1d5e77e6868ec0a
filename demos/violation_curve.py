"""Trace the quantum violation curve.

Two parties each share a singlet with a central measuring device that
performs a noisy Bell-state measurement of sharpness p.  The certification
statistic sqrt|M| + sqrt|N| evaluates to sqrt(2p) exactly, crossing the
classical bound 1 at p = 1/2: any sharpness above one half certifies that no
classical joint measurement can explain the statistics.

Run:  python3 demos/violation_curve.py
"""
import numpy as np

from jointcert import evaluate_mn, quantum_behavior

print(f"{'p':>5} {'M':>10} {'N':>10} {'statistic':>12} {'sqrt(2p)':>10}  verdict")
for p in np.linspace(0.0, 1.0, 21):
    report = evaluate_mn(quantum_behavior(p))
    m, n = report.components
    verdict = "VIOLATED" if report.violated else "classical ok"
    print(
        f"{p:5.2f} {m:10.6f} {n:10.6f} {report.statistic:12.9f} "
        f"{np.sqrt(2 * p):10.6f}  {verdict}"
    )

print()
print("The verdict flips exactly at p = 1/2: a Bell-state measurement keeps a")
print("non-classical signature even when heavily mixed with white noise.")
