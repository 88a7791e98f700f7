"""Reference implementations kept as differential oracles.

These are the per-point and per-tuple loops the library used before every
orbit consumer became a contraction of orbit_counts: each lattice point is
turned into permutations on its own, with no reduction modulo the period
box, and each basis tuple of the pleasantness test gets its own limit.
Residues modulo the period box are counted by walking every point of a
box, listed by ``box_points``, never by the per-axis closed form; the
deviation bound of a box is kept as its per-axis product.
The torus box sum is kept twice: as a lattice loop over every point of the
box, and as the closed form with every phase and resonance sum a Fraction,
which the integer kernel must match to the last bit.
The Host-Kra tower's orbits are found by moving one tuple at a time along
unit vectors, never by lifting permutations to a support.  They are slow
on purpose; tests compare the library against them exactly.

The command line is kept as the argparse parser it was read with before the
table-driven ``cli.parse``, built from that table.

A finite system's measure checks are kept in Fraction arithmetic, as they
ran before the system checked its weights once, over their least common
denominator in ints.

A joined measure's report rows are kept as the list of one dict per
support tuple that the report writer once walked, each mass reduced by its
own gcd.

The rest are helpers only tests use: the action of a flat exponent vector
of Z^{rd}, an integral, partition predicates, a joined measure from
Fraction masses, a bare relatively independent joining, the conjugate and
norms of a trig polynomial, a rotation's numeric entries, and the grid
system of a purely rational torus rotation.
"""

import argparse
import cmath
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from ergolab import __version__
from ergolab.cli import COMMANDS, DESCRIPTION, FORMATS, report_format
from ergolab.errors import (
    MeasureNotPreserved,
    NonProbabilityWeights,
    UndecidableResonance,
    ValidationError,
)
from ergolab.extensions import pleasant_factor
from ergolab.factors import Partition
from ergolab.joinings import JoinedMeasure, _point_masses, _rel_indep_step
from ergolab.observables import Observable, l2_square, linf_norm
from ergolab.system import (
    FiniteSystem,
    FolnerBox,
    compose,
    identity_perm,
    over_common_denominator,
    period_box,
)
from ergolab.torus import TWO_PI, TorusSystem, TrigObservable, _combos

ZERO = Fraction(0)
ONE = Fraction(1)


def box_points(box):
    """The lattice points of a box, first axis slowest: base + offset for
    every offset in prod_j [0, N_j)."""
    return [
        tuple(b + o for b, o in zip(box.base, offs))
        for offs in itertools.product(*(range(N) for N in box.lengths))
    ]


def residues(sys_, acts, pts):
    """How often each residue modulo the periods of the action subset acts
    (per axis, the lcm of those actions' generator orders) occurs among the
    points, walked one point at a time, in the order the walk first meets
    each."""
    periods = tuple(
        math.lcm(*(sys_.orders[i - 1][j] for i in acts)) for j in range(sys_.r)
    )
    reduced = Counter()
    for nvec in pts:
        reduced[tuple(e % P for e, P in zip(nvec, periods))] += 1
    return reduced


def truncated_average(sys_, fs, pts, actions=None):
    """Pointwise average of prod_i f_i o T_{a_i}^n over the points, one
    point at a time."""
    acts = tuple(actions) if actions is not None else tuple(range(1, sys_.d + 1))
    total = [ZERO] * sys_.n
    for nvec in pts:
        perms = [sys_.action_perm(i, nvec) for i in acts]
        for x in range(sys_.n):
            prod = ONE
            for f, p in zip(fs, perms):
                prod *= f.values[p[x]]
            total[x] += prod
    return Observable(tuple(t / len(pts) for t in total))


def exact_limit(sys_, fs):
    return truncated_average(sys_, fs, box_points(period_box(sys_)))


def period_orbits(sys_, base_point=None):
    """How often each (x, T_1^n x, ..., T_d^n x) occurs, for every state x,
    as n walks every point of the period box at base_point, unreduced."""
    counts = Counter()
    for nvec in box_points(FolnerBox(period_box(sys_).lengths, base_point)):
        perms = [sys_.action_perm(i, nvec) for i in range(1, sys_.d + 1)]
        for x in range(sys_.n):
            counts[(x,) + tuple(p[x] for p in perms)] += 1
    return counts


def box_deviation_bound(sys_, fs, box):
    """The square of a box's deviation bound, as the per-axis product: 2 *
    ||f_1||_2 * prod_{i>=2} ||f_i||_inf * (1 - prod_j floor(N_j/P_j)*P_j/N_j)."""
    rho = ONE
    for N, P in zip(box.lengths, period_box(sys_).lengths):
        rho *= Fraction((N // P) * P, N)
    coeff = 2 * math.prod((linf_norm(f) for f in fs[1:]), start=ONE) * (1 - rho)
    return coeff * coeff * l2_square(fs[0], sys_.weights)


def cond_expect_on_support(sys_, f, part):
    """E[f | part] on the cells of positive weight, 0 on null cells.  The
    value on a null state is never read: orbits of support states stay in
    the support."""
    out = [ZERO] * sys_.n
    for cell, w in zip(part.cells, cell_weights(part, sys_.weights)):
        if w:
            v = sum((f.values[x] * sys_.weights[x] for x in cell), ZERO) / w
            for x in cell:
                out[x] = v
    return Observable(tuple(out))


def is_pleasant(sys_):
    """(defect square, witness) from one exact limit per basis tuple; the
    witness is the first tuple reaching the maximum."""
    xi = pleasant_factor(sys_)
    best_sq, witness = ZERO, None
    for x1 in sys_.support:
        e1 = Observable.indicator(sys_.n, x1)
        h = e1 - cond_expect_on_support(sys_, e1, xi)
        if not any(h.values):
            continue
        for rest in itertools.product(sys_.support, repeat=sys_.d - 1):
            fs = [h] + [Observable.indicator(sys_.n, x) for x in rest]
            sq = l2_square(exact_limit(sys_, fs), sys_.weights)
            if sq > best_sq:
                best_sq, witness = sq, (x1,) + rest
    return best_sq, witness


def furstenberg_mass(sys_, base_point=None):
    """mu^{*d} summed point by point over the period box at base_point."""
    pbox = period_box(sys_)
    scale = Fraction(1, pbox.size)
    mass = {}
    for nvec in box_points(FolnerBox(pbox.lengths, base_point)):
        perms = [sys_.action_perm(i, nvec) for i in range(1, sys_.d + 1)]
        for x in sys_.support:
            t = tuple(p[x] for p in perms)
            mass[t] = mass.get(t, ZERO) + sys_.weights[x] * scale
    return mass


def marginals_equal_base(jm):
    """Each coordinate's marginal summed in Fractions, one coordinate at a
    time, against the base weights."""
    for c in range(jm.power):
        marginal = [ZERO] * jm.base.n
        for t, m in jm.mass.items():
            marginal[t[c]] += m
        if tuple(marginal) != jm.base.weights:
            return False
    return True


def pushforward(jm, name, nvec):
    """The joined mass moved by the named action at lattice point nvec."""
    base = jm.base
    perms = [
        base.action_perm(a, nvec) if a else tuple(range(base.n))
        for a in jm.actions[name]
    ]
    return {tuple(p[x] for p, x in zip(perms, t)): m for t, m in jm.mass.items()}


def _units(r):
    """The unit vectors of Z^r."""
    return [tuple(int(k == j) for k in range(r)) for j in range(r)]


def is_invariant(jm, name):
    return all(pushforward(jm, name, u) == jm.mass for u in _units(jm.base.r))


def _mover(base, coords, nvec):
    """The map moving coordinate c of a tuple by T_{coords[c]}^nvec, or
    fixing it if coords[c] is 0."""
    perms = [base.action_perm(a, nvec) if a else range(base.n) for a in coords]
    return lambda t: tuple(p[x] for p, x in zip(perms, t))


def lift(jm, coords):
    """The joined action coords as permutations of the support's indices,
    moving each tuple along the unit vectors and looking its image up in a
    tuple-to-index map; KeyError if an image leaves the support."""
    index = {t: k for k, t in enumerate(jm.support)}
    return tuple(
        tuple(index[move(t)] for t in jm.support)
        for move in (_mover(jm.base, coords, u) for u in _units(jm.base.r))
    )


def tuple_orbits(supp, moves):
    """Orbits of the tuples in supp under the maps in moves, found by
    search from each unseen tuple, as sorted tuples ordered by least member."""
    seen, out = set(), []
    for t in sorted(supp):
        if t in seen:
            continue
        orbit, todo = {t}, [t]
        while todo:
            u = todo.pop()
            for move in moves:
                v = move(u)
                if v not in orbit:
                    orbit.add(v)
                    todo.append(v)
        seen |= orbit
        out.append(tuple(sorted(orbit)))
    return out


def action_orbits(base, supp, coords):
    """Orbits of supp under the joined action coords, moving each tuple
    along the unit vectors of Z^r."""
    return tuple_orbits(supp, [_mover(base, coords, u) for u in _units(base.r)])


def host_kra_masses(sys_):
    """(mass, actions) of every Host-Kra stage.  Stage k couples two copies
    of the last stage over the orbits of T_1 (k = 1) or of T_1 (T_k)^{-1},
    each found by moving tuples one unit vector at a time: forward along T_1
    and backward, with exponent -1, along T_k."""
    d = sys_.d
    mass = {(x,): sys_.weights[x] for x in sys_.support}
    acts = {i: (i,) for i in range(1, d + 1)}
    stages = []
    for k in range(1, d + 1):
        def move(u):
            forward = _mover(sys_, acts[1], u)
            if k == 1:
                return forward
            back = _mover(sys_, acts[k], tuple(-e for e in u))
            return lambda t: forward(back(t))

        orbits = tuple_orbits(mass, [move(u) for u in _units(sys_.r)])
        new = {}
        for orbit in orbits:
            assert set(orbit) <= set(mass), "an orbit left the stage support"
            w = sum(mass[t] for t in orbit)
            for s in orbit:
                for t in orbit:
                    new[s + t] = mass[s] * mass[t] / w
        mass = new
        acts = {
            1: acts[1] + ((0,) * len(acts[1]) if k == 1 else acts[k]),
            **{i: acts[i] * 2 for i in range(2, d + 1)},
        }
        stages.append((mass, {f"T{i}": c for i, c in acts.items()}))
    return stages


def character(freq, coeff=1.0) -> TrigObservable:
    """The trig polynomial coeff * e(freq . t)."""
    return TrigObservable(((tuple(freq), complex(coeff)),))


def torus_truncated_average(sys_, fs, box, samples):
    """The torus lattice sum with every shifted coordinate kept as a
    Fraction, one point and one observable at a time."""
    numeric = [
        [
            tuple(Fraction(v) for v in numeric_rotation(sys_, i, j + 1))
            for j in range(sys_.r)
        ]
        for i in range(1, sys_.d + 1)
    ]
    pts = box_points(box)
    out = []
    for t in samples:
        t_frac = tuple(Fraction(float(x)) for x in t)
        total, comp = 0j, 0j
        for nvec in pts:
            prod = 1 + 0j
            for i, f in enumerate(fs):
                shifted = list(t_frac)
                for j, nj in enumerate(nvec):
                    for a in range(sys_.m):
                        shifted[a] += nj * numeric[i][j][a]
                prod *= f([float(s % 1) for s in shifted])
            y = prod - comp
            s = total + y
            comp = (s - total) - y
            total = s
        out.append(total / len(pts))
    return out



# -- the Fraction closed form of the torus kernel, as it was before every
# phase became an int over one denominator --------------------------------


def _centred(q: Fraction) -> Fraction:
    """The representative of q mod 1 in (-1/2, 1/2]."""
    return q - math.ceil(q - Fraction(1, 2))


def _e(q: Fraction) -> complex:
    """exp(2 pi i q), with q reduced exactly mod 1 first."""
    return cmath.exp(1j * TWO_PI * float(_centred(q)))


def _sin_pi(q: Fraction) -> float:
    """sin(pi q), with q reduced exactly mod 2 first."""
    h = _centred(q)
    s = math.sin(math.pi * float(h))
    return -s if (q - h) % 2 else s


def _dirichlet(theta: Fraction, n: int, base: int) -> complex:
    """(1/n) * sum_{k=base}^{base+n-1} e(k theta) for a centred theta."""
    if theta == 0:
        return 1 + 0j
    return _e(base * theta + (n - 1) * theta / 2) * (
        _sin_pi(n * theta) / (n * math.sin(math.pi * float(theta)))
    )


def _thetas(sys: TorusSystem, fs: Sequence[TrigObservable]):
    """_combos plus the centred total rotation theta_j = sum_i k_i . alpha_{i,j}
    along each axis j, exact in the numeric rotations: a resonant
    combination has theta exactly 0."""
    alphas = [
        [numeric_rotation(sys, i, j) for j in range(1, sys.r + 1)]
        for i in range(1, sys.d + 1)
    ]
    for ks, freq, coeff in _combos(fs):
        thetas = [
            _centred(sum(
                ka * a for k, rows in zip(ks, alphas) for ka, a in zip(k, rows[j])
            ))
            for j in range(sys.r)
        ]
        yield ks, freq, coeff, thetas


def closed_form_torus_average(
    sys: TorusSystem,
    fs: Sequence[TrigObservable],
    box: FolnerBox,
    samples: Sequence[Sequence[float]],
) -> List[complex]:
    """The Fraction closed form of ergolab.torus.torus_truncated_average:
    average of prod_i f_i(t + sum_j n_j alpha_{i,j}) over n in the box,
    at each sample t, in closed form.

    A combination of terms c_i e(k_i . t) contributes prod_i c_i * e(K . t)
    * prod_j D_j, where K = sum_i k_i and D_j is the Dirichlet kernel
    (1/N_j) sum_{n=b_j}^{b_j+N_j-1} e(n theta_j)
    = e(b_j theta_j + (N_j - 1) theta_j / 2) sin(pi N_j theta_j)
    / (N_j sin(pi theta_j)).  Every phase and sine argument is reduced
    exactly before it is rounded, so the error stays flat in the base point
    and in N; the cost is O(#combos * (r + #samples)), whatever the box size.
    """
    if len(fs) != sys.d:
        raise ValidationError(f"need {sys.d} observables, got {len(fs)}")
    if len(box.lengths) != sys.r:
        raise ValidationError("box dimension differs from rank")
    starts = [tuple(Fraction(float(x)) for x in t) for t in samples]
    if any(len(t) != sys.m for t in starts):
        raise ValidationError("sample point has wrong dimension")
    out = [0j] * len(starts)
    for _, freq, coeff, thetas in _thetas(sys, fs):
        for theta, n, b in zip(thetas, box.lengths, box.base):
            coeff *= _dirichlet(theta, n, b)
        for s, t in enumerate(starts):
            out[s] += coeff * _e(sum(k * x for k, x in zip(freq, t)))
    return out


def _resonant(sys: TorusSystem, ks: Sequence[Sequence[int]]) -> bool:
    """Whether sum_i k_i . alpha_{i,j} is an integer along every axis j:
    no symbolic part and an integral rational part, decided exactly."""
    for j in range(1, sys.r + 1):
        rational = Fraction(0)
        symbols: Dict[str, Fraction] = {}
        for i, k in enumerate(ks, start=1):
            for ka, e in zip(k, sys.rotations[i - 1][j - 1]):
                if ka == 0:
                    continue
                if not e.is_exact:
                    raise UndecidableResonance(
                        f"rotation of action {i}, axis {j} is inexact; cannot "
                        f"decide resonance for frequency {k}"
                    )
                rational += ka * e.rational
                for name, coeff in e.symbols:
                    symbols[name] = symbols.get(name, Fraction(0)) + ka * coeff
        if any(symbols.values()) or rational.denominator != 1:
            return False
    return True


def closed_form_character_limit(
    sys: TorusSystem,
    fs: Sequence[TrigObservable],
) -> TrigObservable:
    """The Fraction form of ergolab.torus.character_limit: closed-form
    limit of the truncated averages.

    A product of character terms survives iff it is resonant; the surviving
    combination contributes its coefficient product at the summed frequency.
    """
    if len(fs) != sys.d:
        raise ValidationError(f"need {sys.d} observables, got {len(fs)}")
    acc: Dict[Tuple[int, ...], complex] = {}
    for ks, freq, coeff in _combos(fs):
        if _resonant(sys, ks):
            acc[freq] = acc.get(freq, 0j) + coeff
    terms = tuple(
        (k, c) for k, c in sorted(acc.items()) if c != 0
    )
    return TrigObservable(terms)


def closed_form_torus_bound(
    sys: TorusSystem,
    fs: Sequence[TrigObservable],
    lengths: Sequence[int],
) -> float:
    """The Fraction form of ergolab.torus.torus_deviation_bound: certified
    bound on |torus_truncated_average - character_limit| at
    every sample, for a box with these edge lengths and any base point.

    A resonant combination reproduces its limit term; any other one deviates
    by at most |c| prod_j |D_j| <= |c| prod_j min(1, 1/(N_j |sin(pi theta_j)|)).
    """
    if len(fs) != sys.d:
        raise ValidationError(f"need {sys.d} observables, got {len(fs)}")
    if len(lengths) != sys.r:
        raise ValidationError("box dimension differs from rank")
    total = 0.0
    for ks, _, coeff, thetas in _thetas(sys, fs):
        if _resonant(sys, ks):
            continue
        term = abs(coeff)
        for theta, n in zip(thetas, lengths):
            if theta:
                term *= min(1.0, 1.0 / (n * abs(math.sin(math.pi * float(theta)))))
        total += term
    return total


def check_measure(weights, generators):
    """FiniteSystem's checks of a d-by-r generator table against weights,
    in Fraction arithmetic and in the same order: the weights nonnegative,
    their total exactly 1, then each generator a permutation that preserves
    every state's weight."""
    n = len(weights)
    if any(w < 0 for w in weights):
        raise NonProbabilityWeights("weights must be nonnegative")
    if sum(weights, ZERO) != ONE:
        raise NonProbabilityWeights("weights must sum to exactly 1")
    for i, row in enumerate(generators, start=1):
        for j, p in enumerate(row, start=1):
            if len(p) != n or sorted(p) != list(range(n)):
                raise ValidationError(
                    f"generator (action={i}, axis={j}) is not a "
                    f"permutation of 0..{n - 1}"
                )
            for x in range(n):
                if weights[p[x]] != weights[x]:
                    raise MeasureNotPreserved(i, j, x)


def full_perm(sys_, g):
    """Permutation realising T^g for g in Z^{rd}, a flat exponent vector
    whose coordinate (i-1)*r + (j-1) belongs to action i, axis j."""
    if len(g) != sys_.r * sys_.d:
        raise ValidationError("group element has wrong length")
    p = identity_perm(sys_.n)
    for i in range(1, sys_.d + 1):
        p = compose(sys_.action_perm(i, g[(i - 1) * sys_.r : i * sys_.r]), p)
    return p


def act(sys_, g, x):
    """Image of state x under T^g."""
    return full_perm(sys_, g)[x]


def state_pushforward(sys_, g, m):
    """(pushforward m)(y) = m(g^{-1} y) for a measure vector m on the states."""
    if len(m) != sys_.n:
        raise ValidationError("measure vector has wrong length")
    p = full_perm(sys_, g)
    out = [ZERO] * sys_.n
    for x in range(sys_.n):
        out[p[x]] = m[x]
    return tuple(out)


def singletons(n):
    return Partition.from_cell_ids(range(n))


def one_cell(n):
    return Partition.from_cell_ids([0] * n)


def is_discrete(part):
    return len(part.cells) == part.n


def integral(f, weights):
    return sum((v * w for v, w in zip(f.values, weights)), ZERO)


def cell_weights(part, weights):
    return tuple(sum((weights[x] for x in cell), ZERO) for cell in part.cells)


def refines(part, other):
    """True if every cell of part sits inside one cell of other."""
    return all(len({other.cell_of[x] for x in cell}) == 1 for cell in part.cells)


def rel_indep_joining(sys_, part):
    """mu tensor_Xi mu: couples two copies to share a Xi-cell and be
    conditionally independent given it."""
    if part.n != sys_.n:
        raise ValidationError("partition is over a different state set")
    cells = Partition.from_cell_ids([part.cell_of[x] for x in sys_.support])
    return _rel_indep_step(_point_masses(sys_, {}), cells, {}, None)


def joined_measure(base, power, mass, actions):
    """A JoinedMeasure from a dict of Fraction masses: zero masses dropped,
    the support sorted, the masses made ints over their least common
    denominator."""
    support = sorted(t for t, m in mass.items() if m)
    weights, denom = over_common_denominator(mass[t] for t in support)
    return JoinedMeasure(base, power, support, list(weights), denom, actions)


def measure_json(jm) -> list:
    """Each support tuple with its mass weight / denom in lowest terms."""
    out = []
    for t, w in zip(jm.support, jm.support_weights):
        g = math.gcd(w, jm.denom)
        num, den = w // g, jm.denom // g
        out.append({"state": list(t), "mass": f"{num}/{den}" if den > 1 else str(num)})
    return out


def numeric_rotation(sys_, i, j):
    """The values mod 1 of the entries of T_i along axis j."""
    sv = dict(sys_.symbol_values)
    return tuple(e.value(sv) for e in sys_.rotations[i - 1][j - 1])


def conjugate(f):
    """The complex conjugate of a trig polynomial."""
    return TrigObservable(
        tuple((tuple(-x for x in k), c.conjugate()) for k, c in f.terms)
    )


def l2_norm(f) -> float:
    """The L^2 norm of a trig polynomial, by Haar-orthonormality of the
    characters."""
    return math.sqrt(sum(abs(c) ** 2 for _, c in f.terms))


def linf_bound(f) -> float:
    """The sum of a trig polynomial's coefficient moduli, which bounds it."""
    return sum(abs(c) for _, c in f.terms)


def rational_rotation_to_finite(sys_):
    """Bridge: a system whose rotations are all rational lives on the grid
    (1/q)Z^m / Z^m and converts to a FiniteSystem with uniform weights.

    Returns (finite system, grid points as Fraction tuples in state order).
    """
    denoms = [1]
    for row in sys_.rotations:
        for vec in row:
            for e in vec:
                if not e.is_exact or e.symbols:
                    raise ValidationError(
                        "only purely rational rotations convert to a finite system"
                    )
                denoms.append(e.rational.denominator)
    q = math.lcm(*denoms)
    grid = list(itertools.product(range(q), repeat=sys_.m))
    index = {g: k for k, g in enumerate(grid)}
    n = len(grid)
    generators = []
    for i in range(1, sys_.d + 1):
        row = []
        for j in range(1, sys_.r + 1):
            step = tuple(int(e.rational * q) % q for e in sys_.rotations[i - 1][j - 1])
            row.append(
                tuple(
                    index[tuple((g[a] + step[a]) % q for a in range(sys_.m))]
                    for g in grid
                )
            )
        generators.append(tuple(row))
    finite = FiniteSystem(
        n=n,
        r=sys_.r,
        d=sys_.d,
        weights=(Fraction(1, n),) * n,
        generators=tuple(generators),
        labels=tuple(str(g) for g in grid),
    )
    points = [tuple(Fraction(a, q) for a in g) for g in grid]
    return finite, points


def argparse_parser():
    """The argparse parser of every command in ``cli.COMMANDS``: its
    namespace holds the command's name as ``command`` and every flag's value
    under its dest.  Every parser has add_help=False and allow_abbrev=False
    and gets --help by hand: flags are spelled out in full, and help only as
    --help."""

    def with_help(p):
        p.add_argument("--help", action="help", help="Show this message and exit.")
        return p

    parser = with_help(argparse.ArgumentParser(
        prog="ergolab", description=DESCRIPTION, add_help=False, allow_abbrev=False,
    ))
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, (_, flags, doc) in COMMANDS.items():
        sub = with_help(commands.add_parser(
            name, help=doc, description=doc, add_help=False, allow_abbrev=False
        ))
        for flag, (dest, convert, metavar, text) in flags.items():
            if convert is report_format:
                sub.add_argument(flag, dest=dest, choices=FORMATS, default="json",
                                 help=text)
            else:
                sub.add_argument(flag, dest=dest, required=flag == "--scenario",
                                 type=None if convert is str else convert,
                                 default="." if flag == "--out" else None,
                                 metavar=metavar, help=text)
        sub.set_defaults(command=name)
    return parser
