/* Struct pointer fields whose qualifier slots only a symbolic block
 * makes.  No typed code touches a field before reset() runs: reset's
 * block materializes *c, creating the slots of conn.buf, conn.name and
 * conn.peer in that order, and concludes that conn.name may be NULL.
 * release(), reached only through teardown()'s typed call, then passes
 * c->name to a nonnull parameter, so the warning's path prints the
 * conn.name slot and its #N ordinal.  A store hit on reset must
 * recreate the three slots in the same order for the warm output to
 * match the cold one. */
void sysutil_free(void *nonnull p_ptr) MIX(typed);

struct conn {
  int *buf;
  int *name;
  int *peer;
};

int reset(struct conn *c, int k) MIX(symbolic) {
  if (k > 3) { c->name = NULL; }
  return k;
}

void release(struct conn *c) MIX(typed) {
  sysutil_free(c->name);
}

int teardown(struct conn *c) MIX(symbolic) {
  release(c);
  return 0;
}

int main(void) {
  struct conn *c = malloc(sizeof(struct conn));
  reset(c, 5);
  teardown(c);
  return 0;
}
