open Dice_inet
module L = Config_lexer

exception Parse_error of { line : int; msg : string }

type state = { toks : (L.token * int) array; mutable pos : int }

let peek st = fst st.toks.(st.pos)
let line st = snd st.toks.(st.pos)

let fail st msg = raise (Parse_error { line = line st; msg })

let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let next st =
  let t = peek st in
  advance st;
  t

let expect st tok what =
  let t = next st in
  if t <> tok then
    fail st (Printf.sprintf "expected %s, got %s" what (L.token_to_string t))

let expect_ident st kw =
  match next st with
  | L.IDENT s when s = kw -> ()
  | t -> fail st (Printf.sprintf "expected %S, got %s" kw (L.token_to_string t))

let parse_int st what =
  match next st with
  | L.INT n -> n
  | t -> fail st (Printf.sprintf "expected %s, got %s" what (L.token_to_string t))

let parse_ip st what =
  match next st with
  | L.IP a -> a
  | t -> fail st (Printf.sprintf "expected %s, got %s" what (L.token_to_string t))

let parse_prefix st what =
  match next st with
  | L.PREFIX p -> p
  | L.IP a -> Prefix.host a
  | t -> fail st (Printf.sprintf "expected %s, got %s" what (L.token_to_string t))

let parse_name st what =
  match next st with
  | L.IDENT s -> s
  | t -> fail st (Printf.sprintf "expected %s, got %s" what (L.token_to_string t))

let parse_community st =
  let a = parse_int st "community AS part" in
  expect st L.COLON "':'";
  let v = parse_int st "community value part" in
  if a > 0xFFFF || v > 0xFFFF then fail st "community parts must be <= 65535";
  Community.make a v

(* pattern := PREFIX ('+' | '-' | '{' INT ',' INT '}')? *)
let parse_pattern st =
  let base = parse_prefix st "prefix pattern" in
  let bl = Prefix.len base in
  match peek st with
  | L.PLUS ->
    advance st;
    { Filter.base; low = bl; high = 32 }
  | L.MINUS ->
    advance st;
    { Filter.base; low = 0; high = bl }
  | L.LBRACE ->
    advance st;
    let low = parse_int st "pattern low bound" in
    expect st L.COMMA "','";
    let high = parse_int st "pattern high bound" in
    expect st L.RBRACE "'}'";
    if low > high || high > 32 then fail st "bad pattern bounds";
    { Filter.base; low; high }
  | _ -> { Filter.base; low = bl; high = bl }

let parse_pattern_list st =
  expect st L.LBRACK "'['";
  let rec go acc =
    let p = parse_pattern st in
    match peek st with
    | L.COMMA ->
      advance st;
      go (p :: acc)
    | L.RBRACK ->
      advance st;
      List.rev (p :: acc)
    | _ -> fail st "expected ',' or ']' in prefix set"
  in
  go []

(* term := INT | net.len | bgp_local_pref | bgp_med | bgp_origin
         | source_as | bgp_path.(len|first|last) *)
let parse_term st =
  match next st with
  | L.INT n -> Filter.Int_lit n
  | L.IDENT "net" ->
    expect st L.DOT "'.'";
    expect_ident st "len";
    Filter.Net_len
  | L.IDENT "bgp_local_pref" -> Filter.Local_pref_t
  | L.IDENT "bgp_med" -> Filter.Med_t
  | L.IDENT "bgp_origin" -> Filter.Origin_t
  | L.IDENT "source_as" -> Filter.Source_as
  | L.IDENT "bgp_path" -> begin
    expect st L.DOT "'.'";
    match next st with
    | L.IDENT "len" -> Filter.Path_len
    | L.IDENT "first" -> Filter.Neighbor_as
    | L.IDENT "last" -> Filter.Origin_as
    | t -> fail st (Printf.sprintf "expected len/first/last, got %s" (L.token_to_string t))
  end
  | t -> fail st (Printf.sprintf "expected a term, got %s" (L.token_to_string t))

let parse_cmpop st =
  match next st with
  | L.EQ -> Filter.Ceq
  | L.NE -> Filter.Cne
  | L.LT -> Filter.Clt
  | L.LE -> Filter.Cle
  | L.GT -> Filter.Cgt
  | L.GE -> Filter.Cge
  | t -> fail st (Printf.sprintf "expected a comparison, got %s" (L.token_to_string t))

(* cond atoms; 'net ~ [...]', 'bgp_path ~ N', 'bgp_community ~ a:b' need
   lookahead after the identifier. *)
let rec parse_atom st =
  match peek st with
  | L.LPAREN ->
    advance st;
    let c = parse_cond st in
    expect st L.RPAREN "')'";
    c
  | L.BANG ->
    advance st;
    Filter.Not (parse_atom st)
  | L.IDENT "true" ->
    advance st;
    Filter.True
  | L.IDENT "false" ->
    advance st;
    Filter.False
  | L.IDENT "net" when fst st.toks.(st.pos + 1) = L.TILDE ->
    advance st;
    advance st;
    Filter.Match_net (parse_pattern_list st)
  | L.IDENT "bgp_path" when fst st.toks.(st.pos + 1) = L.TILDE ->
    advance st;
    advance st;
    Filter.Path_has (parse_int st "AS number")
  | L.IDENT "bgp_community" when fst st.toks.(st.pos + 1) = L.TILDE ->
    advance st;
    advance st;
    Filter.Has_community (parse_community st)
  | _ ->
    let a = parse_term st in
    let op = parse_cmpop st in
    let b = parse_term st in
    Filter.Cmp (op, a, b)

and parse_and st =
  let a = parse_atom st in
  if peek st = L.ANDAND then begin
    advance st;
    Filter.And (a, parse_and st)
  end
  else a

and parse_cond st =
  let a = parse_and st in
  if peek st = L.OROR then begin
    advance st;
    Filter.Or (a, parse_cond st)
  end
  else a

let rec parse_stmt ~sites st =
  match peek st with
  | L.IDENT "if" -> begin
    advance st;
    let cond = parse_cond st in
    expect_ident st "then";
    let then_ = parse_block ~sites st in
    let else_ =
      if peek st = L.IDENT "else" then begin
        advance st;
        parse_block ~sites st
      end
      else []
    in
    Filter.mk_if sites cond then_ else_
  end
  | L.IDENT "accept" ->
    advance st;
    expect st L.SEMI "';'";
    Filter.Accept
  | L.IDENT "reject" ->
    advance st;
    expect st L.SEMI "';'";
    Filter.Reject
  | L.IDENT "bgp_local_pref" ->
    advance st;
    expect st L.EQ "'='";
    let t = parse_term st in
    expect st L.SEMI "';'";
    Filter.Set_local_pref t
  | L.IDENT "bgp_med" ->
    advance st;
    expect st L.EQ "'='";
    let t = parse_term st in
    expect st L.SEMI "';'";
    Filter.Set_med t
  | L.IDENT "bgp_community" -> begin
    advance st;
    expect st L.DOT "'.'";
    let op = parse_name st "add/delete" in
    expect st L.LPAREN "'('";
    let c = parse_community st in
    expect st L.RPAREN "')'";
    expect st L.SEMI "';'";
    match op with
    | "add" -> Filter.Add_community c
    | "delete" -> Filter.Delete_community c
    | other -> fail st (Printf.sprintf "unknown community operation %S" other)
  end
  | L.IDENT "bgp_path" ->
    advance st;
    expect st L.DOT "'.'";
    expect_ident st "prepend";
    expect st L.LPAREN "'('";
    let n = parse_int st "prepend count" in
    expect st L.RPAREN "')'";
    expect st L.SEMI "';'";
    Filter.Prepend n
  | t -> fail st (Printf.sprintf "expected a filter statement, got %s" (L.token_to_string t))

and parse_block ~sites st =
  if peek st = L.LBRACE then begin
    advance st;
    let rec go acc =
      if peek st = L.RBRACE then begin
        advance st;
        List.rev acc
      end
      else go (parse_stmt ~sites st :: acc)
    in
    go []
  end
  else [ parse_stmt ~sites st ]

let parse_filter_decl st =
  let name = parse_name st "filter name" in
  expect st L.LBRACE "'{'";
  let sites = Filter.sites name in
  let rec go acc =
    if peek st = L.RBRACE then begin
      advance st;
      List.rev acc
    end
    else go (parse_stmt ~sites st :: acc)
  in
  { Filter.name; body = go [] }

let parse_policy st =
  match next st with
  | L.IDENT "all" -> `All
  | L.IDENT "none" -> `Nothing
  | L.IDENT "filter" -> `Filter (parse_name st "filter name")
  | t -> fail st (Printf.sprintf "expected all/none/filter, got %s" (L.token_to_string t))

let parse_bgp_protocol st ~filters =
  let name = parse_name st "protocol name" in
  expect st L.LBRACE "'{'";
  let neighbor = ref None in
  let remote_as = ref None in
  let import_policy = ref Config_types.All in
  let export_policy = ref Config_types.All in
  let hold = ref 90.0 in
  let keepalive = ref None in
  let retry = ref 5.0 in
  let resolve = function
    | `All -> Config_types.All
    | `Nothing -> Config_types.Nothing
    | `Filter fname -> begin
      match List.find_opt (fun f -> f.Filter.name = fname) filters with
      | Some f -> Config_types.Use_filter f
      | None -> fail st (Printf.sprintf "unknown filter %S" fname)
    end
  in
  let rec go () =
    if peek st = L.RBRACE then advance st
    else begin
      (match next st with
      | L.IDENT "neighbor" ->
        neighbor := Some (parse_ip st "neighbor address");
        expect_ident st "as";
        remote_as := Some (parse_int st "AS number");
        expect st L.SEMI "';'"
      | L.IDENT "import" ->
        import_policy := resolve (parse_policy st);
        expect st L.SEMI "';'"
      | L.IDENT "export" ->
        export_policy := resolve (parse_policy st);
        expect st L.SEMI "';'"
      | L.IDENT "hold" ->
        expect_ident st "time";
        hold := float_of_int (parse_int st "hold time");
        expect st L.SEMI "';'"
      | L.IDENT "keepalive" ->
        expect_ident st "time";
        keepalive := Some (float_of_int (parse_int st "keepalive time"));
        expect st L.SEMI "';'"
      | L.IDENT "connect" ->
        expect_ident st "retry";
        expect_ident st "time";
        retry := float_of_int (parse_int st "connect retry time");
        expect st L.SEMI "';'"
      | t -> fail st (Printf.sprintf "unexpected %s in bgp protocol" (L.token_to_string t)));
      go ()
    end
  in
  go ();
  match (!neighbor, !remote_as) with
  | Some neighbor, Some remote_as ->
    {
      Config_types.name;
      neighbor;
      remote_as;
      import_policy = !import_policy;
      export_policy = !export_policy;
      hold_time = !hold;
      keepalive_time = Option.value !keepalive ~default:(!hold /. 3.0);
      connect_retry_time = !retry;
    }
  | None, _ -> fail st (Printf.sprintf "protocol bgp %s: missing neighbor" name)
  | _, None -> fail st (Printf.sprintf "protocol bgp %s: missing remote AS" name)

let parse_static st =
  expect st L.LBRACE "'{'";
  let rec go acc =
    if peek st = L.RBRACE then begin
      advance st;
      List.rev acc
    end
    else begin
      expect_ident st "route";
      let p = parse_prefix st "static route prefix" in
      expect_ident st "via";
      let via = parse_ip st "next hop" in
      expect st L.SEMI "';'";
      go ((p, via) :: acc)
    end
  in
  go []

let parse_config st =
  let router_id = ref None in
  let local_as = ref None in
  let filters = ref [] in
  let peers = ref [] in
  let statics = ref [] in
  let anycast = ref [] in
  let rec go () =
    match next st with
    | L.EOF -> ()
    | L.IDENT "router" ->
      expect_ident st "id";
      router_id := Some (parse_ip st "router id");
      expect st L.SEMI "';'";
      go ()
    | L.IDENT "local" ->
      expect_ident st "as";
      local_as := Some (parse_int st "AS number");
      expect st L.SEMI "';'";
      go ()
    | L.IDENT "filter" ->
      filters := parse_filter_decl st :: !filters;
      go ()
    | L.IDENT "protocol" -> begin
      match next st with
      | L.IDENT "static" ->
        statics := !statics @ parse_static st;
        go ()
      | L.IDENT "bgp" ->
        peers := parse_bgp_protocol st ~filters:!filters :: !peers;
        go ()
      | t -> fail st (Printf.sprintf "unknown protocol %s" (L.token_to_string t))
    end
    | L.IDENT "anycast" ->
      let pats = parse_pattern_list st in
      expect st L.SEMI "';'";
      anycast := !anycast @ List.map (fun p -> p.Filter.base) pats;
      go ()
    | t -> fail st (Printf.sprintf "unexpected %s at top level" (L.token_to_string t))
  in
  go ();
  match (!router_id, !local_as) with
  | Some router_id, Some local_as ->
    Config_types.make ~router_id ~local_as ~peers:(List.rev !peers)
      ~static_routes:!statics ~filters:(List.rev !filters) ~anycast:!anycast ()
  | None, _ -> fail st "missing 'router id'"
  | _, None -> fail st "missing 'local as'"

let state_of_string src = { toks = Array.of_list (L.lex src); pos = 0 }

let parse src = parse_config (state_of_string src)

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  parse src

let parse_filter ~name src =
  let st = state_of_string (Printf.sprintf "filter %s { %s }" name src) in
  expect_ident st "filter";
  parse_filter_decl st
