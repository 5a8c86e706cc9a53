"""A miniature vsftpd: a multi-module mini-C program in the shape of
vsftpd-2.0.7, the paper's benchmark.

The real daemon is ~12 kLoC of C which our from-scratch frontend cannot
ingest; this transcription reconstructs the modules the paper's four
cases live in (``sysutil``, ``sysstr``, the sockaddr utilities,
``sysdeputil``'s exit hook) plus session/command-loop scaffolding, all
within the supported mini-C subset.  It carries the paper's single
``nonnull`` annotation on ``sysutil_free`` and four optional MIX
annotation sites — one per case study.

``mini_vsftpd(annotations)`` renders the program with any subset of
{"sockaddr_clear", "str_next_dirent", "main_BLOCK", "sysutil_exit_BLOCK"}
enabled; each annotation eliminates the corresponding family of false
positives, at increasing analysis cost (EXPERIMENTS.md E2').
"""

from __future__ import annotations

from typing import AbstractSet, FrozenSet

ANNOTATION_SITES = (
    "sockaddr_clear",
    "str_next_dirent",
    "main_BLOCK",
    "sysutil_exit_BLOCK",
)


def mini_vsftpd(annotations: AbstractSet[str] = frozenset()) -> str:
    unknown = set(annotations) - set(ANNOTATION_SITES)
    if unknown:
        raise ValueError(f"unknown annotation sites: {sorted(unknown)}")

    def sym(site: str) -> str:
        return "MIX(symbolic)" if site in annotations else ""

    def typ(site: str) -> str:
        return "MIX(typed)" if site in annotations else ""

    return f"""
/* ================= tunables.c ================= */
char *tunable_pasv_address;
char *tunable_banner_file;
char *tunable_listen_address;
int tunable_max_clients;
int tunable_listen_port;

/* ================= sysutil.c ================= */
void sysutil_free(void *nonnull p_ptr) MIX(typed);
void exit_model(int code);

int *sysutil_malloc_int(void) {{
  return (int *) malloc(sizeof(int));
}}

void (*s_exit_func)(void);

void sysutil_set_exit_func(void (*f)(void)) {{
  s_exit_func = f;
}}

void sysutil_exit_BLOCK(void) {typ("sysutil_exit_BLOCK")} {{
  if (s_exit_func != NULL) {{
    s_exit_func();
  }}
}}

void sysutil_exit(int exit_code) {{
  sysutil_exit_BLOCK();
  exit_model(exit_code);
}}

/* ================= sysstr.c ================= */
struct mystr {{
  char *p_buf;
  int len;
  int alloc_bytes;
}};

void str_alloc_text(struct mystr *p_str, char *p_src) MIX(typed) {{
  p_str->p_buf = p_src;
  p_str->len = 1;
  p_str->alloc_bytes = 32;
}}

void str_empty(struct mystr *p_str) {{
  p_str->p_buf = "";
  p_str->len = 0;
}}

void str_copy(struct mystr *p_dest, struct mystr *p_src) {{
  p_dest->p_buf = p_src->p_buf;
  p_dest->len = p_src->len;
}}

int str_getlen(struct mystr *p_str) {{
  return p_str->len;
}}

int str_isempty(struct mystr *p_str) {{
  return p_str->len == 0;
}}

char *sysutil_next_dirent(int p_dirent) MIX(typed) {{
  if (p_dirent == 0) {{
    return NULL;
  }}
  return "dirent";
}}

void str_next_dirent(struct mystr *p_str, int d) {sym("str_next_dirent")} {{
  char *p_filename = sysutil_next_dirent(d);
  if (p_filename != NULL) {{
    str_alloc_text(p_str, p_filename);
  }}
}}

/* ================= syssock.c ================= */
struct sockaddr {{
  int family;
  int port;
  int addr;
}};

struct hostent {{
  int h_addrtype;
}};

void die(char *p_text);

struct hostent *gethostbyname_model(char *p_name) {{
  struct hostent *hent = (struct hostent *) malloc(sizeof(struct hostent));
  if (p_name == NULL) {{
    hent->h_addrtype = 2;
  }} else {{
    hent->h_addrtype = 10;
  }}
  return hent;
}}

void sockaddr_clear(struct sockaddr **p_sock) {sym("sockaddr_clear")} {{
  if (*p_sock != NULL) {{
    sysutil_free(*p_sock);
    *p_sock = NULL;
  }}
}}

void sockaddr_alloc(struct sockaddr **p_sock) {{
  *p_sock = (struct sockaddr *) malloc(sizeof(struct sockaddr));
  (*p_sock)->family = 0;
  (*p_sock)->port = 0;
}}

void sockaddr_alloc_ipv4(struct sockaddr **p_sock) {{
  sockaddr_alloc(p_sock);
  (*p_sock)->family = 2;
}}

void sockaddr_alloc_ipv6(struct sockaddr **p_sock) {{
  sockaddr_alloc(p_sock);
  (*p_sock)->family = 10;
}}

void sockaddr_set_port(struct sockaddr *p_sock, int port) {{
  p_sock->port = port;
}}

int sockaddr_get_port(struct sockaddr *p_sock) {{
  return p_sock->port;
}}

void dns_resolve(struct sockaddr **p_sock, char *p_name) {{
  struct hostent *hent = gethostbyname_model(p_name);
  sockaddr_clear(p_sock);
  if (hent->h_addrtype == 2) {{
    sockaddr_alloc_ipv4(p_sock);
  }} else {{
    if (hent->h_addrtype == 10) {{
      sockaddr_alloc_ipv6(p_sock);
    }} else {{
      die("gethostbyname(): neither IPv4 nor IPv6");
    }}
  }}
}}

/* ================= session.c ================= */
struct vsf_session {{
  struct sockaddr *p_local_addr;
  struct sockaddr *p_remote_addr;
  struct mystr user_str;
  struct mystr remote_ip_str;
  int is_anonymous;
  int login_fails;
}};

void session_init(struct vsf_session *p_sess) {{
  p_sess->p_local_addr = NULL;
  p_sess->p_remote_addr = NULL;
  str_empty(&(p_sess->user_str));
  str_empty(&(p_sess->remote_ip_str));
  p_sess->is_anonymous = 0;
  p_sess->login_fails = 0;
}}

void session_shutdown(struct vsf_session *p_sess) {{
  sockaddr_clear(&(p_sess->p_local_addr));
  sockaddr_clear(&(p_sess->p_remote_addr));
}}

/* ================= netio.c ================= */
void main_BLOCK(struct sockaddr **p_sock) {sym("main_BLOCK")} {{
  *p_sock = NULL;
  dns_resolve(p_sock, tunable_pasv_address);
}}

int bind_listen(struct sockaddr *p_accept) {{
  if (p_accept == NULL) {{
    return 0 - 1;
  }}
  sockaddr_set_port(p_accept, tunable_listen_port);
  return sockaddr_get_port(p_accept);
}}

/* ================= postlogin.c ================= */
int handle_dir_listing(struct vsf_session *p_sess, int dir_handle) {{
  int count = 0;
  struct mystr entry_str;
  str_empty(&entry_str);
  while (dir_handle > 0) {{
    str_next_dirent(&entry_str, dir_handle);
    if (str_isempty(&entry_str)) {{
      dir_handle = 0;
    }} else {{
      count = count + 1;
      dir_handle = dir_handle - 1;
    }}
  }}
  sysutil_free(entry_str.p_buf);
  return count;
}}

/* The Case 4 pairing: a symbolic block that needs sysutil_exit, which
   in turn needs its function-pointer call extracted into a typed block. */
void login_check(struct vsf_session *p_sess) {sym("sysutil_exit_BLOCK")} {{
  p_sess->login_fails = p_sess->login_fails + 1;
  if (p_sess->login_fails > 3) {{
    sysutil_exit(1);
  }}
}}

int handle_user_command(struct vsf_session *p_sess, int cmd) {{
  if (cmd == 1) {{
    return handle_dir_listing(p_sess, 4);
  }}
  if (cmd == 2) {{
    login_check(p_sess);
    return 0;
  }}
  return 0 - 1;
}}

/* ================= main.c ================= */
void cleanup_handler(void) {{
  exit_model(0);
}}

int main(void) {{
  struct vsf_session the_session;
  struct sockaddr *p_addr;
  int rc;
  int cmd;
  session_init(&the_session);
  sysutil_set_exit_func(cleanup_handler);
  main_BLOCK(&p_addr);
  rc = bind_listen(p_addr);
  cmd = 1;
  while (cmd <= 2) {{
    rc = handle_user_command(&the_session, cmd);
    cmd = cmd + 1;
  }}
  session_shutdown(&the_session);
  sysutil_free(p_addr);
  return rc;
}}
"""


def annotation_subsets() -> list[FrozenSet[str]]:
    """The cumulative annotation schedule used by the scale benchmark."""
    out: list[FrozenSet[str]] = [frozenset()]
    current: set[str] = set()
    for site in ANNOTATION_SITES:
        current.add(site)
        out.append(frozenset(current))
    return out


# -- the parallel-scale corpus (EXPERIMENTS.md E16) ---------------------------

#: Symbolic worker blocks of ``parallel_vsftpd``, in frontier (sorted)
#: order.  Styled after vsftpd's utility modules.
PARALLEL_BLOCKS = (
    "crunch_access",
    "crunch_banner",
    "crunch_chdir",
    "crunch_dirlist",
    "crunch_epsv",
    "crunch_filter",
)


def _guard(block: int, depth: int, arm: int) -> str:
    """A linear-arithmetic branch guard over the block's int parameters.

    Coefficients are a fixed function of (block, depth, arm) so the
    program is deterministic; they are spread out so sibling branches
    carve distinct regions and a good share of nested combinations are
    infeasible — those forks force full DPLL(T) refutations, which is
    where a real analysis spends its time."""
    c1 = 2 + (17 * block + 3 * depth + 41 * arm) % 269
    c2 = 1 + (5 * block + 29 * depth + 2 * arm) % 283
    c3 = 1 + (23 * block + 2 * depth + 5 * arm) % 241
    k = 3 + (7 * block + 11 * depth + 13 * arm) % 251
    cmp = "<" if (block + depth + arm) % 2 == 0 else ">"
    return f"{c1} * a + {c2} * b - {c3} * c {cmp} {k} * d - {k + depth}"


def _arith_tree(block: int, depth: int, path: int = 0) -> str:
    """A nested if/else tree of ``_guard`` branches; each fork makes the
    executor solve both branch feasibilities against a growing path
    condition."""
    if depth == 0:
        return f"    r = r + {path + 1};"
    then_arm = _arith_tree(block, depth - 1, 2 * path)
    else_arm = _arith_tree(block, depth - 1, 2 * path + 1)
    guard = _guard(block, depth, path % 3)
    return (
        f"    if ({guard}) {{\n{then_arm}\n    }} else {{\n{else_arm}\n    }}"
    )


def parallel_vsftpd(depth: int = 4) -> str:
    """A vsftpd-shaped corpus for the parallel engine (E16): six heavy
    symbolic utility blocks over a staircase of session globals.

    Each block is dominated by a ``depth``-deep linear-arithmetic
    branching tree over its parameters — solver work whose formulas do
    not mention the globals.  The staircase couples the blocks *against*
    the frontier's sorted order: ``crunch_filter`` retires
    ``g_stage_6`` outright, and each earlier block retires the next
    stage only once the later block's conclusion has reached the
    qualifier graph — so exactly one stage falls per fixpoint round, the
    calling context of every block changes every round (the context
    carries all globals), and the whole frontier is re-analyzed round
    after round.  Block-scoped naming re-derives a block's terms in
    every round, so from round two on the queries its earlier contexts
    already asked are warm-cache hits, at any ``--jobs``; only a new
    context's queries need solving (or speculating).  The run ends when
    the staircase reaches ``g_stage_2``, which
    ``crunch_filter`` has been handing to ``sysutil_free``'s nonnull
    parameter all along: one deterministic warning."""
    stages = "\n".join(f"int *g_stage_{s};" for s in range(1, 7))
    blocks = []
    for i, name in enumerate(PARALLEL_BLOCKS):
        tail: str
        if name == PARALLEL_BLOCKS[-1]:
            # Last in sorted order: starts the staircase unconditionally
            # and reports the end of it.  The free comes first: a typed
            # call havocs global cells, and a havoc'd final value carries
            # no null conclusion back to the qualifier graph.
            tail = (
                "  sysutil_free(g_stage_2);\n"
                "  g_stage_6 = NULL;"
            )
        else:
            # Block i retires stage i+1 once stage i+2 is known null;
            # the owner of stage i+2 sorts *after* this block, so the
            # trigger is only visible one round later.
            tail = (
                f"  if (g_stage_{i + 2} == NULL) {{\n"
                f"    g_stage_{i + 1} = NULL;\n"
                f"  }}"
            )
        # The bounding shell keeps every parameter in a finite range so
        # the int solver's branch-and-bound stays shallow; the tree's
        # queries are then hard but bounded.
        shell_open = "\n".join(
            f"  if ({v} < 1) {{ return 0; }}\n  if ({v} > 40) {{ return 0; }}"
            for v in "abcd"
        )
        blocks.append(
            f"int {name}(int a, int b, int c, int d) MIX(symbolic) {{\n"
            f"  int r = 0;\n"
            f"{shell_open}\n"
            f"{_arith_tree(i, depth)}\n"
            f"{tail}\n"
            f"  return r;\n"
            f"}}"
        )
    body = "\n\n".join(blocks)
    calls = "\n".join(
        f"  total = total + {name}(seed + {i}, seed - {2 * i}, "
        f"seed * {i + 2}, limit + {i});"
        for i, name in enumerate(PARALLEL_BLOCKS)
    )
    return f"""
/* ============ sysutil.c (shared with mini_vsftpd) ============ */
void sysutil_free(void *nonnull p_ptr) MIX(typed);

/* ============ session globals: the staircase ============ */
{stages}

/* ============ the worker modules ============ */
{body}

int main(void) {{
  int total;
  int seed;
  int limit;
  total = 0;
  seed = 3;
  limit = 40;
{calls}
  return total;
}}
"""


def property_staircase(depth: int = 4) -> str:
    """The E22 proving corpus: ``parallel_vsftpd``'s staircase with the
    null-deref finding replaced by per-block ``check`` obligations.

    Each worker block accumulates ``r`` over its ``depth``-deep
    arithmetic tree (every leaf adds at least 1) and then asserts
    ``check(r > 0)`` — valid on every path that reaches it, so the
    falsifying branch of each path is an infeasibility query against
    that path's full condition: exactly the solver workload the
    parallel engine warms.  The staircase coupling is unchanged (one
    session global falls per fixpoint round, every block re-analyzed
    every round), so ``repro prove --entry typed --jobs N`` re-derives
    E16's cache compounding on a proving workload; the expected suite
    verdict is a single PROVED with no warnings."""
    stages = "\n".join(f"int *g_stage_{s};" for s in range(1, 7))
    blocks = []
    for i, name in enumerate(PARALLEL_BLOCKS):
        if name == PARALLEL_BLOCKS[-1]:
            tail = "  g_stage_6 = NULL;"
        else:
            tail = (
                f"  if (g_stage_{i + 2} == NULL) {{\n"
                f"    g_stage_{i + 1} = NULL;\n"
                f"  }}"
            )
        shell_open = "\n".join(
            f"  if ({v} < 1) {{ return 0; }}\n  if ({v} > 40) {{ return 0; }}"
            for v in "abcd"
        )
        blocks.append(
            f"int {name}(int a, int b, int c, int d) MIX(symbolic) {{\n"
            f"  int r = 0;\n"
            f"{shell_open}\n"
            f"{_arith_tree(i, depth)}\n"
            f"  check(r > 0);\n"
            f"{tail}\n"
            f"  return r;\n"
            f"}}"
        )
    body = "\n\n".join(blocks)
    calls = "\n".join(
        f"  total = total + {name}(seed + {i}, seed - {2 * i}, "
        f"seed * {i + 2}, limit + {i});"
        for i, name in enumerate(PARALLEL_BLOCKS)
    )
    return f"""
/* ============ session globals: the staircase ============ */
{stages}

/* ============ the worker modules: one property each ============ */
{body}

int main(void) {{
  int total;
  int seed;
  int limit;
  total = 0;
  seed = 3;
  limit = 40;
{calls}
  return total;
}}
"""
