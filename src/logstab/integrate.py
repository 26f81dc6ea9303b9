"""ODE integration for trajectories and fundamental matrices.

Three methods. ``rk4`` is a classic fixed-step RK4. ``ndf`` is the
variable-order (1-5), quasi-constant-step NDF of Shampine & Reichelt
("The MATLAB ODE Suite", 1997): an implicit multistep method for stiff runs,
solved by a simplified Newton iteration on an explicit inverse of
I - h/((1 - kappa) gamma_k) J. For n = 2 that inverse is taken in closed
form, adj/det on the matrix scaled by a power of two, and makes no LAPACK
call; larger systems call LAPACK. The iteration stops once its predicted
remaining error, rate / (1 - rate) times the last correction, is below 0.03
(10 eps / rel_tol at tolerances under 7e-14) in the scaled norm of the
step's own error test, which accepts a step at 1. The rate is the
contraction of successive corrections. As in ode15s, it is carried from one
solve to the next on the same matrix, updated to max(0.9 old, new), so such a
solve can stop after its first iteration; the tests that fail a solve use
only the rates it measures itself. The matrix is formed anew after every
change of h or order, from J evaluated at the last accepted node; a rejected
step re-forms it from the J it already has. Re-forming it drops the carried
rate. Steps of unchanged h reuse it. A step whose Newton iteration
fails is rejected and h halved, so the next matrix gets a fresh J when the
failed one had outlived its node's. Where J cannot be evaluated because the
field is non-finite near the node, the previous J stays. ``auto``, the
default, runs the explicit 8th-order Dormand-Prince pair DOP853 of Hairer,
Norsett & Wanner (*Solving Ordinary Differential Equations I*, II.5-6; step
control from their combined 5th/3rd-order error estimate) and hands the rest
of the run to ndf once the run has turned stiff. The NDF's per-order
constants, the rescaling matrix R(1) of each order among them, are tabulated
at import, as are DOP853's per-stage tableau rows.

The stiffness test costs no extra field evaluations. Each accepted DOP853 step
has two evaluations at t + h: the last stage K12 = f(t + h, Y12) and the next
first stage f(t + h, y_new). Their quotient

    sigma = <f(t + h, y_new) - K12, y_new - Y12> / |y_new - Y12|^2

samples the numerical range of J, whose upper end is mu2[J] (Hairer &
Wanner's stiffness test, with the sign kept). Y12 is the input of the last
stage, which the stage loop has already formed; the test does not form it
again. ``auto`` switches after STIFF_RUN consecutive accepted steps on which
the run contracts (sigma < 0), DOP853's next proposed step is below max_step,
and one of two tests holds. The stability test is h * (-sigma) >= STIFF_THETA:
the step is near DOP853's stability bound. The cost test (Petzold's rule
in LSODA, 1983) asks whether NDF would go further per unit of work: an
order-5 NDF step, from y^(6) estimated as 6! times the 6th divided difference
of the last 7 nodes and sized so that its error test _NDF_ERR[5] h^6 |y^(6)|
reads 1 in the step's scaled norm, is at least STIFF_COST_RATIO times the
proposed DOP853 step. That ratio is the cost of an NDF step over that of a
DOP853 step: on the demo an NDF step takes about 50 us and a DOP853 step of
12-15 field evaluations 115-145 us, and their ratio 0.4 is rounded up to 0.5
for the hand-over's own cost, an order-1 restart with a fresh Jacobian. The estimate is formed only when the
other conditions hold and the stability test fails. On the demo, the ratio
of the estimate to DOP853's step is at most 0.11 on t <= 1 and 0.6-1.5 on
[2.5, 4], so the run switches near t = 2.4, where h * (-sigma) reaches 0.75
only near t = 3.7. The stability test alone switches runs held at their
stability bound before 7 nodes exist, such as A = [[-1000, 1], [0, -1]].
The max_step condition keeps a run that DOP853 crosses in steps of max_step,
a slow decay, on DOP853. A rotation has sigma = 0 and an expanding field
sigma > 0, so neither switches.

Every method shares one run object, ``_Run``. It holds the accepted nodes,
their step records and the counters, and it alone ends or fails a run (tf
reached, step budget spent, step size underflow). RK4, DOP853 and ``ndf`` are
step rules that propose steps to it and hand each accepted step's record to
its one ``accept``; ``auto`` hands the same run from DOP853 to ndf. The run
reads the records once, when it ends, for a sampled run's table and each
member's error estimate. RK4 knows its step count up front and never rejects,
so it checks the budget once before its first step. Each entry point hands
its field and Jacobian to ``_integrate``, which makes the run. Every method
starts from the field value that its caller validated at (t0, x0). Every
later evaluation checks the shape of f's and delta's outputs and takes their
sum as float64, so a callable whose output turns bad mid-run raises
EvaluationError at the first evaluation that meets it, naming the callable, x
and t, and a real output of another type (float32, say) is converted. A
system whose delta is None runs on f alone, with the same test of f's output.
A non-finite value is a step's business: it rejects the trial step, or ends
the run with DivergedError. The step rules run under
``np.errstate(all="ignore")``, so such a value, or an overflow, invalid
operation or division by zero that makes one, raises no numpy warning on the
way.

A step's record is its node, its local-error estimate per component (none
for RK4), the field at an RK4 or DOP853 node, and in a sampled run its
interpolation data. RK4 and DOP853 evaluate the field at each node they
accept, require it finite, and start the next step from it; no Trajectory
carries that field. An NDF node takes no field evaluation: the next step
starts from the backward differences of its interpolant.

``integrate_many`` integrates N states of one system as one ensemble run:
its state is the N states end to end, and every method above runs on it
unchanged. The members share every step, so each takes the smallest step
any of them needs: the error test reads the max over all N n components.
Each member keeps its own local-error estimate, per step the max over its
own components, so its Trajectory's ``error_estimate`` is what that member
alone contributed, not the ensemble's largest. The field is f on the (N, n)
stack of states (``system._rows``, one call of ``f.stack`` where f carries
one) plus one delta(t) added to every row. The ndf iteration matrix is
block-diagonal, one block I - c J per member from ``jacobian`` on the
stack, and is inverted block by block, never as one (Nn)^2 matrix: each
2x2 block by the closed form of a single run, larger ones by one stacked
LAPACK call; Newton applies each block's inverse to its own member. A
singular block fails the run with the condition of the worst block. The
members share the step budget ``max_steps``, the step counts and the switch
time of ``auto``. A one-member ensemble has the bits of ``integrate`` on its
state.

``integrate``'s ``sample_times`` is the one way to sample, and it is checked
before the run starts. A sampled run builds one table when it ends, one row
block per interval: y' at its start and at its end, per unit t, and the rows
F3..F6 of DOP853's 7th-order continuous extension, the interval's cubic
Hermite plus s^2 (1-s)^2 (F3 + s (F4 + (1-s) (F5 + s F6))). One sampler
reads every interval in that form, which gives a sample on a node that
node's state. An RK4 interval has no correction rows. Each DOP853 step of a
sampled run also evaluates the three extra stages of its extension and
records its rows F3..F6. Each NDF step records a copy of the backward
differences 1..k of its order-k interpolant; that interpolant has degree
k <= 5 and meets both nodes, so it is such a form, and the table turns every
NDF block into it with one product by the constant matrix ``_NDF_HERMITE``.
Runs that only return their grid keep no interpolation data and skip
DOP853's extra stages.

The fundamental matrix of a linear time-varying system is one run of its n
columns, row k of the state being column k of Phi, so all columns share the
integrator's grid; ndf's one block A(t) gives one n x n inverse of I - c A
for every row (no Kronecker product, no n^2 x n^2 matrix), and the record is
transposed back to Phi once. The transition-bound checker then compares
propagator norms against the exponential envelopes built from integrals of
the logarithmic norm along the grid, as stacked array operations; an
envelope that overflows or underflows reads its violation at its limit.
Every evaluation of A(t) is checked by ``system``: each call on the integrator's
path for its shape, A(t0) and the Simpson nodes (midpoints the integrator
never visits) also for finiteness. A bad A(t) raises EvaluationError naming
t, as any user callable's bad output does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConditioningError, DivergedError, EvaluationError, InvalidInputError
from .errors import _FLOAT, check_array, check_count, check_positive, check_window
from .linalg import NormKind, induced_matrix_norm, solve, vec_norm
from .lognorm import log_norm_pair
from .system import SystemSpec, _at_times, _checked_output, _rows, _shaped, eval_rhs, jacobian

METHODS = ("auto", "rk4", "ndf")

# the tolerance of the bound checks before the integration-error term
TOL_BASE = 1e-6


def error_budget(*runs) -> float:
    """A bound check's tolerance: TOL_BASE plus 10x the summed local-error estimates of these runs (none ``rk4``)."""
    return TOL_BASE + 10.0 * sum(run.error_estimate for run in runs)


def _lower_triangular(rows) -> np.ndarray:
    """Square matrix whose row s holds rows[s] in its first s columns."""
    a = np.zeros((len(rows), len(rows)))
    for s, row in enumerate(rows):
        a[s, :s] = row
    return a


# Dormand-Prince 8(5,3) with its 7th-order continuous extension: the published
# coefficients of Hairer, Norsett & Wanner's DOP853 code. Row s of _DOP_A forms
# stage s from stages 0..s-1. Stages 0-11 make the step; row 12 holds the
# weights b of the 8th-order solution, so stage 12 is f(t + h, y_new) (first
# same as last); stages 13-15 exist only for the dense output.
_DOP_STAGES = 12
_DOP_C = (
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    1.0 / 3.0,
    0.25,
    4.0 / 13.0,
    127.0 / 195.0,
    0.6,
    6.0 / 7.0,
    1.0,
    1.0,
    0.1,
    0.2,
    7.0 / 9.0,
)

_DOP_A = _lower_triangular((
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
     -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
     1.89151789931450038304281599044, -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2),
    (5.61675022830479523392909219681e-2, 0.0, 0.0, 0.0, 0.0, 0.0, 2.53500210216624811088794765333e-1,
     -2.46239037470802489917441475441e-1, -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
     8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3, -8.298e-3),
    (3.18346481635021405060768473261e-2, 0.0, 0.0, 0.0, 0.0, 2.83009096723667755288322961402e-2,
     5.35419883074385676223797384372e-2, -5.49237485713909884646569340306e-2, 0.0, 0.0,
     -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4, -3.40465008687404560802977114492e-4,
     1.41312443674632500278074618366e-1),
    (-4.28896301583791923408573538692e-1, 0.0, 0.0, 0.0, 0.0, -4.69762141536116384314449447206,
     7.68342119606259904184240953878, 4.06898981839711007970213554331, 3.56727187455281109270669543021e-1,
     0.0, 0.0, 0.0, -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
     -9.15095847217987001081870187138),
))
_DOP_B = _DOP_A[_DOP_STAGES, :_DOP_STAGES]
# weights of the 5th-order error e5 = E5 . K and the 3rd-order error e3 = E3 . K
_DOP_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
])
_DOP_E3 = _DOP_B.copy()
_DOP_E3[[0, 8, 11]] -= (
    0.244094488188976377952755905512, 0.733846688281611857341361741547, 0.220588235294117647058823529412e-1
)
# rows 3-6 of the continuous extension: F3..F6 = h D K over all 16 stages
_DOP_D = np.array([
    [-0.84289382761090128651353491142e1, 0.0, 0.0, 0.0, 0.0, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e1, 0.23846676565120698287728149680e1, 0.21170345824450282767155149946e1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e2, -0.91946323924783554000451984436e1,
     -0.44360363875948939664310572000e1],
    [0.10427508642579134603413151009e2, 0.0, 0.0, 0.0, 0.0, 0.24228349177525818288430175319e3,
     0.16520045171727028198505394887e3, -0.37454675472269020279518312152e3, -0.22113666853125306036270938578e2,
     0.77334326684722638389603898808e1, -0.30674084731089398182061213626e2, -0.93321305264302278729567221706e1,
     0.15697238121770843886131091075e2, -0.31139403219565177677282850411e2, -0.93529243588444783865713862664e1,
     0.35816841486394083752465898540e2],
    [0.19985053242002433820987653617e2, 0.0, 0.0, 0.0, 0.0, -0.38703730874935176555105901742e3,
     -0.18917813819516756882830838328e3, 0.52780815920542364900561016686e3, -0.11573902539959630126141871134e2,
     0.68812326946963000169666922661e1, -0.10006050966910838403183860980e1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e1, -0.60196695231264120758267380846e2, 0.84320405506677161018159903784e2,
     0.11992291136182789328035130030e2],
    [-0.25693933462703749003312586129e2, 0.0, 0.0, 0.0, 0.0, -0.15418974869023643374053993627e3,
     -0.23152937917604549567536039109e3, 0.35763911791061412378285349910e3, 0.93405324183624310003907691704e2,
     -0.37458323136451633156875139351e2, 0.10409964950896230045147246184e3, 0.29840293426660503123344363579e2,
     -0.43533456590011143754432175058e2, 0.96324553959188282948394950600e2, -0.39177261675615439165231486172e2,
     -0.14972683625798562581422125276e3],
])
# stage s of a step: (c_s, the row of _DOP_A that forms it from stages 0..s-1)
_DOP_STAGE_ROWS = tuple((_DOP_C[s], _DOP_A[s, :s]) for s in range(_DOP_A.shape[0]))

# ``auto`` hands over to ndf after STIFF_RUN consecutive accepted DOP853 steps
# that pass the stability test h * (-sigma) >= STIFF_THETA or the cost test,
# an NDF step estimate >= STIFF_COST_RATIO times DOP853's (see the module docstring)
STIFF_THETA = 0.75
STIFF_RUN = 3
STIFF_COST_RATIO = 0.5

# NDF coefficients by order k (index 0 unused): kappa_k, gamma_k = sum_{j<=k} 1/j,
# the Newton scaling (1 - kappa_k) gamma_k, and the error constant
# kappa_k gamma_k + 1/(k + 1) of the local error estimate
_NDF_MAX_ORDER = 5
_KAPPA = np.array([0.0, -0.1850, -1.0 / 9.0, -0.0823, -0.0415, 0.0])
_GAMMA = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, _NDF_MAX_ORDER + 1))])
_NDF_ALPHA = (1.0 - _KAPPA) * _GAMMA
_NDF_ERR = _KAPPA * _GAMMA + 1.0 / np.arange(1, _NDF_MAX_ORDER + 2)
_NEWTON_ITERS = 4


def _r_matrix(order: int, r: float) -> np.ndarray:
    """R(r)[i, j] = prod_{m=1..i} (m - 1 - r j) / m for i, j = 0..order (see ``_rescale_differences``)."""
    j = np.arange(1, order + 1)
    steps = np.zeros((order + 1, order + 1))
    steps[0] = 1.0
    steps[1:, 1:] = (j[:, None] - 1.0 - r * j) / j[:, None]
    return np.cumprod(steps, axis=0)


# R(1) by order (index 0 unused): every change of h rescales with it
_R_ONE = (None,) + tuple(_r_matrix(order, 1.0) for order in range(1, _NDF_MAX_ORDER + 1))
# the first rows of an NDF step's block from its backward differences D1..D5 on steps of h, zero above its order:
# h y'(start) = D1 - sum_{j>=2} Dj / (j (j - 1)), h y'(end) = sum_j Dj / j (ode15s's BDF derivative),
# F3 = D4 / 24 + 7 D5 / 120 and F4 = D5 / 120; F5 = F6 = 0
_NDF_HERMITE = np.array([
    [1.0, -1.0 / 2.0, -1.0 / 6.0, -1.0 / 12.0, -1.0 / 20.0],
    [1.0, 1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0, 1.0 / 5.0],
    [0.0, 0.0, 0.0, 1.0 / 24.0, 7.0 / 120.0],
    [0.0, 0.0, 0.0, 0.0, 1.0 / 120.0],
])


@dataclass
class IntegratorConfig:
    """Step-size and tolerance knobs for every integration method.

    ``method`` is one of METHODS: ``auto`` (DOP853, then ndf once the run
    turns stiff), ``rk4`` or ``ndf``. ``step`` is the fixed step for rk4 and
    the initial step of auto's DOP853 phase; ndf picks its own first step.
    ``max_step`` caps adaptive growth; stiff late-time dynamics (rates like
    -t^3) otherwise provoke large rejected excursions.
    ``max_steps`` bounds accepted plus rejected steps, over both phases of an
    ``auto`` run.
    """

    method: str = "auto"
    step: float = 0.01
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = 0.1
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown integrator method {self.method!r}; expected one of {', '.join(METHODS)}")
        # max_step = inf sets no cap; step = inf is capped by max_step and by the window
        check_positive(self.step, "step", allow_inf=True)
        check_positive(self.max_step, "max_step", allow_inf=True)
        check_positive(self.rel_tol, "rel_tol")
        check_positive(self.abs_tol, "abs_tol")
        check_count(self.max_steps, "max_steps")


@dataclass
class Trajectory:
    """Time-stamped states of one integration run.

    ``times`` and ``states`` are the integrator's own grid, or the samples
    a run took at ``integrate``'s ``sample_times``.
    ``error_estimate`` is the sum, in step order, of the max-abs local-error
    estimates of the accepted steps, each over this trajectory's own
    components for a member of an ``integrate_many`` ensemble. It is None
    where there is no estimate:
    for ``rk4`` runs, which estimate no local error, and for a trajectory
    built by hand or loaded from CSV.
    ``stiff_from`` is the time at which an ``auto`` run switched to ndf, and
    None when it did not switch or ran another method.
    """

    times: np.ndarray
    states: np.ndarray
    error_estimate: Optional[float] = None
    n_steps: int = 0
    n_rejected: int = 0
    stiff_from: Optional[float] = None

    def __post_init__(self):
        self.times = check_array(self.times, "trajectory times", (None,))
        self.states = check_array(self.states, "trajectory states", (self.times.size, None))
        if not np.all(np.diff(self.times) > 0.0):
            raise InvalidInputError("trajectory times must strictly increase")

    @property
    def dim(self) -> int:
        return self.states.shape[1]


class FundamentalTrajectory(Trajectory):
    """The Trajectory of the matrix ODE dPhi/dt = A(t) Phi, Phi(t0) = I.

    ``states`` holds Phi(t) row-major, one n^2 row per time; ``matrices`` is
    a view of them as (m, n, n), and ``dim`` is n. The other fields are those
    of the one run that produced every column.
    """

    def __post_init__(self):
        super().__post_init__()
        n = self.dim
        if n == 0 or n * n != self.states.shape[1]:
            raise InvalidInputError(f"fundamental states need n^2 >= 1 columns, got {self.states.shape[1]}")
        if not (self.times.size and np.allclose(self.matrices[0], np.eye(n))):
            raise InvalidInputError("fundamental trajectory must start at the identity")

    @property
    def dim(self) -> int:
        return math.isqrt(self.states.shape[1])

    @property
    def matrices(self) -> np.ndarray:
        return self.states.reshape(-1, self.dim, self.dim)


def _hermite_sample(times, states, rows, ts) -> np.ndarray:
    """The states at ts, each interval's cubic Hermite plus s^2 (1-s)^2 (F3 + s (F4 + (1-s) (F5 + s F6))).

    rows[i] is interval i's block: y' at its start and at its end, per unit
    t, then F3..F6. With DOP853's rows this is its 7th-order extension.
    """
    idx = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, len(times) - 2)
    h = times[idx + 1] - times[idx]
    s = (ts - times[idx]) / h
    s2 = s * s
    s3 = s2 * s
    h00 = (2.0 * s3 - 3.0 * s2 + 1.0)[:, None]
    h10 = (s3 - 2.0 * s2 + s)[:, None]
    h01 = (-2.0 * s3 + 3.0 * s2)[:, None]
    h11 = (s3 - s2)[:, None]
    hcol = h[:, None]
    sc = s[:, None]
    d0, d1, f3, f4, f5, f6 = np.moveaxis(rows[idx], 1, 0)
    return (
        h00 * states[idx]
        + h10 * hcol * d0
        + h01 * states[idx + 1]
        + h11 * hcol * d1
        + (s2 * (1.0 - s) ** 2)[:, None] * (f3 + sc * (f4 + (1.0 - sc) * (f5 + sc * f6)))
    )


def _validate_sample_times(ts, t0: float, tf: float) -> np.ndarray:
    ts = check_array(ts, "sample_times", (None,), finite=False)  # NaN fails the window test below
    if ts.size == 0:
        raise InvalidInputError("sample_times must be a non-empty 1-D sequence")
    if not np.all(np.diff(ts) > 0.0):
        raise InvalidInputError("sample_times must strictly increase")
    slack = 1e-9 * max(1.0, abs(t0), abs(tf))
    if not (ts[0] >= t0 - slack and ts[-1] <= tf + slack):  # written so that NaN fails
        raise InvalidInputError(f"sample_times must lie within [{t0}, {tf}]")
    return np.clip(ts, t0, tf)


def integrate(
    sys: SystemSpec,
    x0,
    t0: float,
    tf: float,
    cfg: IntegratorConfig | None = None,
    sample_times=None,
) -> Trajectory:
    """Integrate dx/dt = f(x,t) + delta(t) from t0 to tf.

    Returns the integrator's own grid, or a dense resampling when
    ``sample_times`` is given. Raises DivergedError (carrying the last valid
    time) on state blow-up, step underflow, step-budget exhaustion or a
    non-finite field at a node, ConditioningError when the ndf iteration
    matrix is singular, and EvaluationError when f or delta returns output
    that is not numeric or of the wrong shape.

    ``sys.delta`` is read once, when the run starts. A system whose delta is
    None runs on f alone, with the result a zero delta would give. The run
    keeps the arrays f returns, so f must return a new array at each call.
    """
    check_window(t0, tf)
    x0 = check_array(x0, "x0", (sys.dim,))
    shape, delta = (sys.dim,), sys.delta

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        fx = sys.f(y, t)
        if delta is None:  # a system without delta runs on f alone
            # a float64 array of the right shape passes as it is; else names f, x and t, or converts it
            return _shaped("f", fx, shape, t, y)
        dx = delta(t)
        try:
            if fx.shape == dx.shape == shape:
                out = fx + dx
                if out.dtype is _FLOAT:  # an identity test, as in check_array: dtype equality is slow
                    return out
        except (AttributeError, TypeError, ValueError):
            pass  # an output that is not an array (a list, say) or that cannot be added
        # names the callable, x and t of an output that is not real or has the wrong shape; else converts it
        return _shaped("f", fx, shape, t, y) + _shaped("delta", dx, shape, t)

    return _integrate(
        rhs, lambda t, y: jacobian(sys, y, t), x0, lambda: eval_rhs(sys, x0, t0), t0, tf, cfg, sample_times
    )[0]


def integrate_many(
    sys: SystemSpec,
    X0,
    t0: float,
    tf: float,
    cfg: IntegratorConfig | None = None,
    sample_times=None,
) -> list[Trajectory]:
    """Integrate the N states X0 (N, n) of one system as one ensemble run: one Trajectory per state, in order.

    The members share every step (see the module docstring), so they share
    their times, step counts and ``stiff_from``; each has its own states and
    ``error_estimate``. The field is ``f`` on the stack of the members'
    states, in one call of ``f.stack`` where f carries one and row by row
    otherwise, plus one delta(t) added to every row. X0 obeys the array
    rule of arguments; the errors are ``integrate``'s, for the whole run, and
    a bad output of ``f.stack`` names the stack it was evaluated at.
    """
    check_window(t0, tf)
    x0 = check_array(X0, "X0", (None, sys.dim))
    if not len(x0):
        raise InvalidInputError("X0 must hold at least one state")
    shape, delta = x0.shape, sys.delta

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        fx = _rows("f", sys.f, y.reshape(shape), t, shape[1:])
        if delta is None:
            return fx.ravel()
        return (fx + _shaped("delta", delta(t), shape[1:], t)).ravel()

    def jac(t: float, y: np.ndarray) -> np.ndarray:
        return jacobian(sys, y.reshape(shape), t)

    return _integrate(rhs, jac, x0, lambda: eval_rhs(sys, x0, t0), t0, tf, cfg, sample_times, members=len(x0))


def _integrate(rhs, jac, x0, start, t0, tf, cfg, sample_times, members=1) -> list[Trajectory]:
    """One run of ``cfg``'s method (the default where None) from x0 at t0 to tf: the members' trajectories.

    ``rhs(t, y)`` is the field on the flat state, ``jac(t, y)`` ndf's
    Jacobian (one matrix or a stack of diagonal blocks), and ``start()`` the
    validated field at (t0, x0), called once the sample times pass.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    if sample_times is not None:
        sample_times = _validate_sample_times(sample_times, t0, tf)
    run = _Run(rhs, x0.ravel(), start().ravel(), t0, tf, cfg, dense=sample_times is not None, members=members)
    # every method turns a non-finite value into a rejection or a DivergedError, so numpy need not warn of one
    with np.errstate(all="ignore"):
        if cfg.method == "rk4":
            _rk4_steps(run)
        elif cfg.method == "auto":
            _dop853_steps(run)
        if cfg.method == "ndf" or run.stiff_from is not None:
            _ndf_steps(run, jac)
    return run.trajectories(sample_times)


class _Run:
    """The accepted nodes, their step records and the counters of one run (see the module docstring).

    An adaptive step rule loops while ``running()``, calls ``check(h)`` before
    it tries a step of size h, and reports the outcome through ``accept``,
    which only appends the step's record, or ``reject``. RK4 only accepts.
    Every evaluation goes through ``rhs``, which checks the shape and type of
    each output. The state of an ensemble of ``members`` states is their
    concatenation, one state per equal block.
    """

    def __init__(
        self, rhs, x0: np.ndarray, f0: np.ndarray, t0: float, tf: float, cfg: IntegratorConfig, dense: bool, members: int
    ):
        self.rhs = rhs
        self.tf = tf
        self.cfg = cfg
        self.times = [t0]
        self.states = [x0.copy()]
        self.derivs = [f0]  # the field at t0 and at each RK4 and DOP853 node
        self.errors = []  # each accepted step's local-error estimate per component, None for RK4
        self.interp = [] if dense else None  # a sampled run's interpolation data per accepted step
        self.members = members
        self.n_rejected = 0
        self.non_finite = False  # a trial step met a non-finite value since the last accepted node
        self.stiff_from = None
        self.tiny = 1e-12 * max(1.0, abs(tf - t0))

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    def running(self) -> bool:
        return self.times[-1] < self.tf - self.tiny

    def check(self, h: float) -> None:
        """Raise DivergedError when the step budget is spent or h has underflowed.

        h underflows below 10 ulps of t, as in Hairer's codes and scipy's,
        so a run very stiff at t0 = 0 can start. After a non-finite trial h
        gives up below 1e-14 max(1, |t|) instead: halving on to 10 ulps of
        t = 0 would take a thousand more trials of a field that has blown up.
        """
        t = self.times[-1]
        if self.n_steps + self.n_rejected >= self.cfg.max_steps:
            raise DivergedError(f"step budget {self.cfg.max_steps} exhausted at t={t}", t)
        if self.non_finite and h < 1e-14 * max(1.0, abs(t)):
            raise DivergedError(f"field non-finite near t={t}: steps shrank to underflow", t)
        if h < 10.0 * math.ulp(t):
            raise DivergedError(f"step size underflow at t={t}", t)

    def reject(self, non_finite: bool = False) -> None:
        self.n_rejected += 1
        self.non_finite = self.non_finite or non_finite

    def node_field(self, t: float, y: np.ndarray) -> np.ndarray:
        """The field at a node about to be accepted; DivergedError when it is non-finite."""
        f = self.rhs(t, y)
        if not np.isfinite(f).all():
            raise DivergedError(f"field non-finite after step to t={t}", self.times[-1])
        return f

    def accept(self, t: float, y: np.ndarray, err: Optional[np.ndarray], f=None, interp=None) -> None:
        """Append the record of an accepted step to the node (t, y).

        ``err`` is the step's local-error estimate per component (None for
        RK4); ``f`` the field at an RK4 or DOP853 node, from ``node_field``;
        ``interp``, in a sampled run only, DOP853's rows F3..F6 or the NDF
        step's backward differences 1..k, k its order.
        """
        self.times.append(t)
        self.states.append(y)
        self.errors.append(err)
        if f is not None:
            self.derivs.append(f)
        if self.interp is not None:
            self.interp.append(interp)
        self.non_finite = False

    def trajectories(self, ts=None) -> list[Trajectory]:
        """The run on its own grid, or at the sample times ts: one Trajectory per member, in order.

        The one reader of the step records: it builds a sampled run's table and each member's error estimate.
        """
        times, states = np.array(self.times), np.array(self.states)
        n = states.shape[1] // self.members
        if ts is not None:
            # one row block per interval for ``_hermite_sample``; the run keeps no field at an NDF node, so the
            # intervals after the last node that has one are NDF, and their blocks take their Hermite form
            derivs = np.array(self.derivs)
            first = len(derivs) - 1
            rows = np.zeros((self.n_steps, 6, states.shape[1]))
            rows[:first, 0], rows[:first, 1] = derivs[:-1], derivs[1:]
            for k, data in enumerate(self.interp):
                if k >= first:  # an NDF step's differences
                    rows[k, : len(data)] = data
                elif data is not None:  # DOP853's F3..F6; an RK4 interval has none
                    rows[k, 2:] = data
            ndf = rows[first:]
            ndf[:, :4] = _NDF_HERMITE @ ndf[:, :5]
            ndf[:, :2] /= np.diff(times)[first:, None, None]
            ndf[:, 4] = 0.0
            times, states = ts, _hermite_sample(times, states, rows, ts)
        states = states.reshape(len(times), self.members, n)
        estimates = [None] * self.members
        if self.cfg.method != "rk4":
            maxima = np.array(self.errors).reshape(-1, self.members, n).max(axis=2)
            # added in step order from 0.0, as running totals add; a pairwise sum would round otherwise
            estimates = np.cumsum(np.vstack([np.zeros(self.members), maxima]), axis=0)[-1].tolist()
        return [
            Trajectory(
                times.copy() if k else times,
                np.ascontiguousarray(states[:, k]),
                error_estimate=estimates[k],
                n_steps=self.n_steps,
                n_rejected=self.n_rejected,
                stiff_from=self.stiff_from,
            )
            for k in range(self.members)
        ]


def _rk4_steps(run: _Run) -> None:
    """Fixed-step RK4 to tf: n equal steps, the budget checked for all n up front, none rejected."""
    cfg, rhs, tf = run.cfg, run.rhs, run.tf
    t0, y, f_cur = run.times[-1], run.states[-1], run.derivs[-1]
    n = max(1, int(np.ceil((tf - t0) / min(cfg.step, cfg.max_step) - 1e-12)))
    if n > cfg.max_steps:
        raise DivergedError(f"fixed-step run needs {n} steps, budget is {cfg.max_steps}", t0)
    h = (tf - t0) / n
    t = t0
    for k in range(1, n + 1):
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * f_cur)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (f_cur + 2.0 * k2 + 2.0 * k3 + k4)
        t = tf if k == n else t0 + k * h  # t0 + n h may miss tf by rounding
        if not np.all(np.isfinite(y)):
            raise DivergedError(f"state blew up near t={t}", run.times[-1])
        f_cur = run.node_field(t, y)
        run.accept(t, y, None, f_cur)


def _dop853_steps(run: _Run) -> None:
    """DOP853 steps to tf, or until the run turns stiff, which sets ``stiff_from``.

    In a sampled run each accepted step also evaluates the three stages of
    the continuous extension and stores its rows F3..F6; a non-finite value
    there rejects the step like any other non-finite stage, so only sampled
    runs can reject a step for it.
    """
    cfg, rhs, tf = run.cfg, run.rhs, run.tf
    t, y = run.times[-1], run.states[-1]
    h = min(cfg.step, cfg.max_step, tf - t)
    stages = np.empty((_DOP_A.shape[0], y.size))
    stages[0] = run.derivs[-1]
    abs_y = np.abs(y)
    stiff_steps = 0  # consecutive accepted steps with h * (-sigma) >= STIFF_THETA

    def fill(first: int, last: int) -> Optional[np.ndarray]:
        """Stages first..last-1 of the step (t, y, h) from the ones before.

        Returns the input of stage last-1, or None when a stage is non-finite.
        """
        for s in range(first, last):
            c_s, a_s = _DOP_STAGE_ROWS[s]
            y_s = y + h * (a_s @ stages[:s])
            stages[s] = rhs(t + c_s * h, y_s)
        return y_s if np.isfinite(stages[first:last]).all() else None

    while run.running():
        h = min(h, tf - t)
        run.check(h)
        y12 = fill(1, _DOP_STAGES)
        if y12 is None:
            run.reject(non_finite=True)  # an oversized step can overflow, so shrink before giving up
            h *= 0.1
            continue
        k = stages[:_DOP_STAGES]
        y_new = y + h * (_DOP_B @ k)
        e5 = _DOP_E5 @ k
        e3 = _DOP_E3 @ k
        # Hairer's combined estimate h |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2), per component
        den = np.hypot(e5, 0.1 * e3)
        abs_e5 = np.abs(e5)
        err_vec = h * abs_e5 * (abs_e5 / np.where(den > 0.0, den, 1.0))
        if not (np.isfinite(y_new).all() and np.isfinite(err_vec).all()):
            run.reject(non_finite=True)
            h *= 0.1
            continue

        abs_y_new = np.abs(y_new)  # |y| of the next step's error scale
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(abs_y, abs_y_new)
        err = float((err_vec / scale).max())
        if err > 1.0:
            run.reject()
            h *= max(0.2, 0.9 * err ** -0.125)
            continue
        t_new = t + h
        stages[_DOP_STAGES] = f_new = run.node_field(t_new, y_new)
        rows = None
        if run.interp is not None:
            if fill(_DOP_STAGES + 1, stages.shape[0]) is None:
                run.reject(non_finite=True)
                h *= 0.1
                continue
            rows = h * (_DOP_D @ stages)
        run.accept(t_new, y_new, err_vec, f_new, rows)
        grow = 0.9 * err ** -0.125 if err > 0.0 else 10.0
        h_next = h * min(10.0, max(0.2, grow))
        # the last stage K12 = f(t + h, Y12) and f_new give sigma (see the module docstring);
        # -sigma |gap|^2 is tested against both thresholds without dividing by |gap|^2
        gap = y_new - y12
        gap2 = gap @ gap
        damp = gap @ (k[-1] - f_new)
        stiff = damp > 0.0 and h_next < cfg.max_step and (
            h * damp >= STIFF_THETA * gap2 or _ndf_outpaces(run, scale, STIFF_COST_RATIO * h_next)
        )
        stiff_steps = stiff_steps + 1 if stiff else 0
        if stiff_steps >= STIFF_RUN and run.running():
            run.stiff_from = t_new
            return
        t = t_new
        y = y_new
        abs_y = abs_y_new
        stages[0] = f_new
        h = min(h_next, cfg.max_step)


def _ndf_outpaces(run: _Run, scale: np.ndarray, h: float) -> bool:
    """Whether an order-5 NDF step of size h would pass its error test on the run's last 7 nodes.

    y^(6) is 6! times the 6th divided difference of those nodes, the sum of
    y_i / prod_{j != i} (t_i - t_j); the test is _NDF_ERR[5] h^6 |y^(6)| <= 1
    in the scaled max-norm of ``scale``. A NaN from an overflow fails it.
    """
    if len(run.times) < 7:
        return False
    t = np.array(run.times[-7:])
    gaps = t[:, None] - t
    np.fill_diagonal(gaps, 1.0)
    y6 = (720.0 / gaps.prod(axis=1)) @ np.array(run.states[-7:])
    return bool(_NDF_ERR[5] * h**6 * (np.abs(y6) / scale).max() <= 1.0)


def _rescale_differences(diffs: np.ndarray, order: int, factor: float) -> None:
    """Re-express the backward differences of the interpolant on the step h * factor, in place.

    Row i of diffs holds the i-th backward difference on steps of h. With
    R(r)[i, j] = prod_{m=1..i} (m - 1 - r j) / m, the differences on the new
    step are (R(factor) R(1))^T diffs[:order + 1]; R(1) comes from ``_R_ONE``.
    """
    diffs[: order + 1] = (_r_matrix(order, factor) @ _R_ONE[order]).T @ diffs[: order + 1]


def _fold_correction(diffs: np.ndarray, order: int, corr: np.ndarray) -> None:
    """Move the backward differences to an accepted node, in place.

    corr is the (order + 1)-th difference at the new node; row order + 2
    takes its change. Then row i gains the new row i + 1, for i = order down
    to 0, which is one cumulative sum over the rows in reverse.
    """
    diffs[order + 2] = corr - diffs[order + 1]
    diffs[order + 1] = corr
    diffs[order + 1 :: -1] = diffs[order + 1 :: -1].cumsum(axis=0)


def _inverse_2x2(j_mat: np.ndarray, c: float) -> tuple[Optional[np.ndarray], float]:
    """(M^-1, |M|_inf |M^-1|_inf) of M = I - c J for a 2x2 J; (None, inf) where det(M) is 0 or not finite.

    M is scaled by the power of two 2^e that brings its largest entry into
    [0.5, 1). The scaling is exact, no product in det(2^e M) overflows, and the
    condition number does not change. M^-1 is 2^e adj(2^e M) / det(2^e M).
    """
    (j00, j01), (j10, j11) = j_mat.tolist()
    m = (1.0 - c * j00, 0.0 - c * j01, 0.0 - c * j10, 1.0 - c * j11)  # 0.0 - x: the zero signs of I - c J
    e = -math.frexp(max(map(abs, m)))[1]  # 0 where the largest entry is 0, inf or NaN
    m00, m01, m10, m11 = [math.ldexp(v, e) for v in m]
    det = m00 * m11 - m01 * m10
    if det == 0.0 or not math.isfinite(det):
        return None, math.inf
    cond = max(abs(m00) + abs(m01), abs(m10) + abs(m11)) * max(abs(m11) + abs(m01), abs(m10) + abs(m00)) / abs(det)
    return np.ldexp(np.array([[m11, -m01], [-m10, m00]]) / det, e), cond


def _iteration_inverse(j_mat: np.ndarray, c: float, t: float) -> np.ndarray:
    """Explicit inverse of the Newton matrix M = I - c J; ConditioningError when it is singular.

    J is one matrix (n, n), or a stack of diagonal blocks (N, n, n), N = 1
    for a fundamental matrix, which gives the stack of the blocks' inverses.
    Singular means |M|_inf |M^-1|_inf eps >= 1 for a block, or no inverse at all, and the
    error names the largest condition. A 2x2 M, or each 2x2 block of a
    stack, is inverted in closed form by ``_inverse_2x2``, a larger M or
    stack of blocks by LAPACK.
    """
    if j_mat.shape[-1] == 2 and j_mat.ndim == 2:
        inv, cond = _inverse_2x2(j_mat, c)
    elif j_mat.shape[-1] == 2:
        blocks = [_inverse_2x2(block, c) for block in j_mat]
        cond = max(block_cond for _, block_cond in blocks)
        inv = np.array([block_inv for block_inv, _ in blocks]) if cond < math.inf else None
    else:
        m = np.eye(j_mat.shape[-1]) - c * j_mat
        try:
            inv = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            inv = None
        if inv is None:
            cond = np.inf
        else:
            cond = (np.abs(m).sum(axis=-1).max(axis=-1) * np.abs(inv).sum(axis=-1).max(axis=-1)).max()
    if not cond * np.finfo(float).eps < 1.0:
        raise ConditioningError(f"ndf iteration matrix I - {c:.6g} J is singular at t={t} (condition {cond:.3g})")
    return inv


def _ndf_newton(rhs, t_new, y_pred, c, psi, m_inv, scale, tol, rate):
    """Simplified Newton iteration for the NDF corrector corr = c f(t_new, y_pred + corr) - psi.

    The iteration matrix is the inverse of I - c J with a possibly stale J,
    or a stack of diagonal blocks, one per member of an ensemble, or one
    block for all n columns of a fundamental matrix, applied block by block.
    ``rate`` is the contraction rate carried from the last solve on the same
    matrix, or None. With it, the first iteration may end the solve; the
    tests that fail a solve use only the rates measured in this one.
    Returns (converged, iterations, y, corr, non_finite, rate); corr is None
    when the first iteration fails, and the returned rate, max(0.9 rate, last
    measured rate) as in ode15s, is the one to carry, or None.
    """
    y, corr, prev = y_pred, None, None
    zero = np.zeros(y.size)
    for it in range(_NEWTON_ITERS):
        f = rhs(t_new, y)
        if not math.isfinite(f @ zero):  # inf or NaN times 0 is NaN
            return False, it + 1, y, corr, True, None
        residual = c * f - psi
        step = residual if corr is None else residual - corr
        dy = m_inv @ step if m_inv.ndim == 2 else (m_inv @ step.reshape(-1, m_inv.shape[-1], 1)).ravel()
        size = float((np.abs(dy) / scale).max())
        new = None if prev is None else size / prev  # the rate this iteration measures
        if new is not None and (new >= 1.0 or new ** (_NEWTON_ITERS - it) / (1.0 - new) * size > tol):
            return False, it + 1, y, corr, False, None
        y = y + dy
        corr = dy if corr is None else corr + dy
        if new is not None:
            rate = new if rate is None else max(0.9 * rate, new)
            rate = rate if rate > 0.0 else None  # a carried 0 would pass any first iteration
            if new / (1.0 - new) * size < tol:
                return True, it + 1, y, corr, False, rate
        elif size == 0.0 or (rate is not None and rate / (1.0 - rate) * size < tol):
            return True, 1, y, corr, False, rate
        prev = size
    return False, _NEWTON_ITERS, y, corr, False, None


def _ndf_start_step(run: _Run) -> float:
    """Order-1 NDF step from y'' ~ df/dt between the last two stored nodes, capped by max_step and tf.

    A run that starts at t0 has one node; an explicit Euler probe of the
    size Hairer, Norsett & Wanner use to start (Solving ODEs I, II.4) gives
    the second field value.
    """
    cfg = run.cfg
    t, y, f = run.times[-1], run.states[-1], run.derivs[-1]
    cap = min(cfg.max_step, run.tf - t)
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y)
    if len(run.times) > 1:
        dt = t - run.times[-2]
        df = f - run.derivs[-2]
    else:
        d0, d1 = np.max(np.abs(y) / scale), np.max(np.abs(f) / scale)
        dt = min(cap, 0.01 * d0 / d1 if min(d0, d1) >= 1e-5 else 1e-6)
        df = run.rhs(t + dt, y + dt * f) - f
    d2 = float(np.max(np.abs(df) / scale)) / dt
    # the order-1 error estimate is _NDF_ERR[1] h^2 |y''|; aim at a quarter of the tolerance
    h = float(np.sqrt(0.25 / (_NDF_ERR[1] * d2))) if d2 > 0.0 else cap
    return h if h < cap else cap  # also where a non-finite probe made h NaN


def _ndf_steps(run: _Run, jac) -> None:
    """Variable-order NDF steps from the last node of ``run`` to tf.

    For ``ndf`` that node is t0; for ``auto`` it is where the DOP853 phase
    found the run stiff. The Newton tolerance and when J is evaluated are
    set out in the module docstring. In a sampled run each accepted step
    hands its record a copy of the backward differences 1..order of its
    interpolant. A non-finite error estimate or state rejects the step like a
    non-finite field.
    """
    cfg, rhs, tf = run.cfg, run.rhs, run.tf
    t, y = run.times[-1], run.states[-1]
    h = _ndf_start_step(run)
    # rows 0..order hold the backward differences of the interpolant; two spare
    # rows carry the new correction and its difference for the order change
    diffs = np.zeros((_NDF_MAX_ORDER + 3, y.size))
    diffs[0] = y
    diffs[1] = h * run.derivs[-1]
    abs_y = np.abs(y)
    zero = np.zeros(y.size)
    order = 1
    n_equal = 0  # accepted steps since the last change of h or order
    j_mat = jac(t, y)
    j_fresh = True  # j_mat was evaluated since the last accepted node
    m_inv = None
    rate = None  # the Newton rate carried from the last solve on m_inv
    # the corrector need only converge well inside the error test, which accepts at 1
    newton_tol = max(10.0 * np.finfo(float).eps / cfg.rel_tol, 0.03)

    def resize(factor: float) -> None:
        nonlocal h, n_equal, m_inv, rate
        _rescale_differences(diffs, order, factor)
        h *= factor
        n_equal = 0
        m_inv = rate = None

    while run.running():
        h_cap = min(cfg.max_step, tf - t)
        if h > h_cap:
            resize(h_cap / h)
            h = h_cap
        run.check(h)
        t_new = t + h
        y_pred = diffs[: order + 1].sum(axis=0)
        psi = (_GAMMA[1 : order + 1] @ diffs[1 : order + 1]) / _NDF_ALPHA[order]
        c = h / _NDF_ALPHA[order]
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(abs_y, np.abs(y_pred))
        if m_inv is None:
            # a new h or order: form the matrix from a J taken at the last accepted node
            if not j_fresh:
                try:  # where f is non-finite near the node, J cannot be evaluated and the previous J stays
                    j_mat = jac(t, y)
                except EvaluationError:
                    pass  # J only steers the iteration; the step then fails, or passes, on f itself
                j_fresh = True
            m_inv = _iteration_inverse(j_mat, c, t)
        converged, n_iter, y_new, corr, bad, rate = _ndf_newton(
            rhs, t_new, y_pred, c, psi, m_inv, scale, newton_tol, rate
        )
        if not converged:
            run.reject(non_finite=bad)
            resize(0.5)
            continue

        abs_y_new = np.abs(y_new)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(abs_y, abs_y_new)
        abs_err = np.abs(_NDF_ERR[order] * corr)
        err = float((abs_err / scale).max())
        if not (math.isfinite(err) and math.isfinite(y_new @ zero)):  # inf or NaN times 0 is NaN
            run.reject(non_finite=True)
            resize(0.5)
            continue
        safety = 0.9 * (2 * _NEWTON_ITERS + 1) / (2 * _NEWTON_ITERS + n_iter)
        if err > 1.0:
            run.reject()
            resize(max(0.2, safety * err ** (-1.0 / (order + 1))))
            continue

        t = t_new
        y = y_new
        abs_y = abs_y_new
        j_fresh = False
        _fold_correction(diffs, order, corr)
        # the next steps move diffs in place, so a sampled run keeps a copy
        run.accept(t, y, abs_err, interp=None if run.interp is None else diffs[1 : order + 1].copy())
        n_equal += 1
        if n_equal < order + 1:
            continue

        # try orders k - 1, k, k + 1 and take the one that allows the longest step
        err_lo = (np.abs(_NDF_ERR[order - 1] * diffs[order]) / scale).max() if order > 1 else np.inf
        err_hi = (np.abs(_NDF_ERR[order + 1] * diffs[order + 2]) / scale).max() if order < _NDF_MAX_ORDER else np.inf
        # an estimate of 0 gives the factor inf (integrate runs the step rules under np.errstate)
        factors = np.array([err_lo, err, err_hi]) ** (-1.0 / np.arange(order, order + 3))
        best = int(np.argmax(factors))
        order += best - 1
        resize(min(10.0, safety * factors[best]))


def _matrix_at_start(a_fn: Callable[[float], np.ndarray], t0: float) -> np.ndarray:
    """A(t0), which must be a finite square matrix (n, n)."""
    a0 = _shaped("A", a_fn(t0), None, t0)
    n = a0.shape[0] if a0.ndim else 1
    return _checked_output("A", a0, (n, n), t0)


def integrate_fundamental(
    a_fn: Callable[[float], np.ndarray],
    t0: float,
    tf: float,
    cfg: IntegratorConfig | None = None,
    sample_times=None,
) -> FundamentalTrajectory:
    """Solve dPhi/dt = A(t) Phi, Phi(t0) = I, as one run of its n columns.

    Row k of the run's state is column k of Phi, with the field X A(t)^T, so
    every column lives on the integrator's own grid, or on ``sample_times``
    when given, which must start at t0 (InvalidInputError otherwise). A(t0)
    must be a finite square matrix (n, n), and A(t) must keep that shape
    throughout; otherwise EvaluationError names the shape and t. ndf inverts
    the one block I - c A(t) for all n columns.
    """
    check_window(t0, tf)
    a0 = _matrix_at_start(a_fn, t0)
    n = len(a0)
    if sample_times is not None and _validate_sample_times(sample_times, t0, tf)[0] != t0:
        raise InvalidInputError(f"sample_times must start at t0={t0}, where the fundamental matrix is the identity")

    def columns(t: float, y: np.ndarray) -> np.ndarray:
        return (y.reshape(n, n) @ _shaped("A", a_fn(t), (n, n), t).T).ravel()

    def block(t: float, y: np.ndarray) -> np.ndarray:
        return _checked_output("A", a_fn(t), (n, n), t)[None]

    run = _integrate(columns, block, np.eye(n), lambda: a0.T, t0, tf, cfg, sample_times)[0]
    run.states = np.swapaxes(run.states.reshape(-1, n, n), 1, 2).reshape(-1, n * n)
    return FundamentalTrajectory(**vars(run))


# Simpson panels in a step of max_step in the mu-integrals of check_transition_bounds
_SIMPSON_PANELS = 6


def _simpson_nodes(times: np.ndarray, panels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step k of the grid split into panels[k] Simpson panels of equal length.

    Returns the panels' ends and midpoints in order, and the index of each
    grid node among them.
    """
    h = np.diff(times)
    per_step = 2 * panels
    nodes = np.concatenate([[0], np.cumsum(per_step)])
    frac = (np.arange(nodes[-1]) - np.repeat(nodes[:-1], per_step)) / np.repeat(per_step, per_step)
    return np.append(np.repeat(times[:-1], per_step) + np.repeat(h, per_step) * frac, times[-1]), nodes


def _simpson_points(times: np.ndarray, max_step: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``_simpson_nodes`` of the grid with ceil(_SIMPSON_PANELS h / max_step) panels in a step h."""
    panels = np.maximum(1, np.ceil(_SIMPSON_PANELS * np.diff(times) / max_step - 1e-9)).astype(int)
    return _simpson_nodes(times, panels)


def _cumulative_simpson(points: np.ndarray, nodes: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Cumulative integral at the grid nodes from g at the ``_simpson_nodes`` of the grid."""
    panels = ((points[2::2] - points[:-2:2]) / 6.0) * (g[:-2:2] + 4.0 * g[1::2] + g[2::2])
    return np.concatenate([[0.0], np.cumsum(panels)])[nodes // 2]


def _worst_violations(value: np.ndarray, scale, int_plus: np.ndarray, int_minus: np.ndarray) -> tuple[float, float]:
    """The worst relative violations of scale exp(-int_minus) <= value <= scale exp(int_plus).

    They are the largest (value - upper) / upper and (lower - value) / lower.
    Where an envelope overflowed to inf or underflowed to 0, its quotient
    reads its limit: an upper violation tends to -1 as its bound grows and to
    +inf as it shrinks to 0, a lower violation to 1 and to -inf. A quotient
    that overflows, by a subnormal bound, is that infinite limit too.
    """
    worst = []
    with np.errstate(over="ignore"):
        upper = scale * np.exp(int_plus)
        lower = scale * np.exp(-int_minus)
        for excess, bound, sign in ((value - upper, upper, 1.0), (lower - value, lower, -1.0)):
            limit = np.where(bound == 0.0, sign * np.inf, -sign)
            worst.append(float(np.max(np.divide(excess, bound, out=limit, where=(bound > 0.0) & (bound < np.inf)))))
    return worst[0], worst[1]


@dataclass
class TransitionBoundReport:
    """Worst-case slack of the propagator-norm and state-norm envelopes.

    Violations are relative to the corresponding exponential bound, so 0
    means the bound is exactly attained and negative values mean slack. A
    bound that overflowed to inf or underflowed to 0 gives the violation's
    limit: -1 for an upper bound at inf, -inf for a lower bound at 0. The
    report fails when any violation exceeds the tolerance budget.
    """

    kind_tag: str
    t0: float
    tf: float
    n_pairs: int
    n_states: int
    worst_upper_violation: float
    worst_lower_violation: float
    worst_state_upper_violation: float
    worst_state_lower_violation: float
    tolerance: float
    max_condition: float
    passed: bool


def check_transition_bounds(
    a_fn: Callable[[float], np.ndarray],
    kind: NormKind,
    t0: float,
    tf: float,
    n_pairs: int = 20,
    n_states: int = 5,
    seed: int = 0,
) -> TransitionBoundReport:
    """Verify the exponential transition-matrix and state-norm envelopes.

    For sampled grid pairs tau <= t the propagator norm ||Phi(t) Phi(tau)^-1||
    must sit between exp(-int mu[-A]) and exp(int mu[A]); random initial
    states are checked against the same envelopes from t0. The fundamental
    matrix is one run under the default IntegratorConfig. The mu-integrals
    use composite Simpson on the integrator's grid, each step h split into
    ceil(6 h / max_step) panels, so a step of max_step gets 6 and the short
    steps of a stiff run one. mu is only piecewise smooth (l1 and linf have
    kinks), so the quadrature, not the ODE tolerance, dominates: on
    acceptance criterion 07's 100 systems its worst error against a
    20,001-point reference is 2.9e-5 on DOP853's grid (9.3e-4 with one
    panel per step). The tolerance is the ``error_budget`` of the one run
    of Phi's columns.
    The propagators, condition numbers and norms of all pairs and states
    are computed as stacks, one wrapper call each. ``max_condition`` is the
    largest sigma_max / sigma_min of the sampled Phi(tau), from one stack of
    singular values; the propagator solve raises ConditioningError on a
    singular Phi(tau).
    """
    n_pairs, n_states = check_count(n_pairs, "n_pairs"), check_count(n_states, "n_states")
    check_count(seed, "seed", 0)
    check_window(t0, tf)
    kind.check_fits(len(_matrix_at_start(a_fn, t0)))
    fund = integrate_fundamental(a_fn, t0, tf)
    times = fund.times
    phi = fund.matrices
    m = times.size
    points, nodes = _simpson_points(times, IntegratorConfig().max_step)
    # the integrator never visits the Simpson midpoints, so A(t) is checked here as well
    mu_plus, mu_minus = log_norm_pair(_at_times("A", a_fn, points, (fund.dim, fund.dim)), kind)
    int_plus = _cumulative_simpson(points, nodes, mu_plus)
    int_minus = _cumulative_simpson(points, nodes, mu_minus)

    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n_pairs):  # i_t is drawn from [i_tau, m), so the draws interleave
        i_tau = int(rng.integers(0, m))
        draws.append((i_tau, int(rng.integers(i_tau, m))))
    i_tau, i_t = np.array(draws).T
    phi_tau = phi[i_tau]
    # Phi(t) Phi(tau)^-1 = X, solved as Phi(tau)^T X^T = Phi(t)^T; a singular Phi(tau) raises ConditioningError
    prop = np.swapaxes(solve(np.swapaxes(phi_tau, -1, -2), np.swapaxes(phi[i_t], -1, -2)), -1, -2)
    sigma = np.linalg.svd(phi_tau, compute_uv=False)  # descending, per matrix
    if not np.all(sigma[:, -1] > 0.0):
        raise ConditioningError("fundamental matrix is numerically singular: its smallest singular value is 0")
    max_cond = max(1.0, float(np.max(sigma[:, 0] / sigma[:, -1])))
    norm_val = induced_matrix_norm(prop, kind)
    worst_up, worst_lo = _worst_violations(
        norm_val, 1.0, int_plus[i_t] - int_plus[i_tau], int_minus[i_t] - int_minus[i_tau]
    )

    t_idx = rng.integers(0, m, size=max(1, n_pairs // 2))
    x0 = rng.normal(size=(n_states, fund.dim))
    x0n = vec_norm(x0, kind)
    xtn = vec_norm(x0 @ np.swapaxes(phi[t_idx], -1, -2), kind)  # |Phi(t) x0|, shape (t, state)
    worst_sup, worst_slo = _worst_violations(xtn, x0n, int_plus[t_idx][:, None], int_minus[t_idx][:, None])

    tolerance = error_budget(fund)
    passed = max(worst_up, worst_lo, worst_sup, worst_slo) <= tolerance
    return TransitionBoundReport(
        kind_tag=kind.tag,
        t0=t0,
        tf=tf,
        n_pairs=n_pairs,
        n_states=n_states,
        worst_upper_violation=worst_up,
        worst_lower_violation=worst_lo,
        worst_state_upper_violation=worst_sup,
        worst_state_lower_violation=worst_slo,
        tolerance=float(tolerance),
        max_condition=float(max_cond),
        passed=bool(passed),
    )
