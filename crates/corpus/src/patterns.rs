//! Hand-written benchmark projects, one per real-world dynamic-object
//! idiom the paper identifies: mixin-based API initialization, method
//! tables built in loops, event-emitter registries, plugin systems,
//! `eval`-built APIs, dynamic `require`, descriptor-based accessors, and
//! class-based dependency injection.
//!
//! Every project ships a `test/driver.js` used to produce its dynamic
//! call graph (standing in for the paper's project test suites), and some
//! carry synthetic vulnerability annotations for the §5 reachability
//! study.

use aji_ast::Project;

/// All hand-written pattern projects, in a stable order.
pub fn pattern_projects() -> Vec<Project> {
    vec![
        webframe(),
        pubsub(),
        plugin_host(),
        validator(),
        model_builder(),
        eval_api(),
        middleware_stack(),
        i18n(),
        config_store(),
        di_container(),
        task_queue(),
        template_engine(),
        rest_client(),
        logger_lib(),
    ]
}

/// The paper's motivating example, fleshed out: an Express-like web
/// framework whose API is assembled with merge-descriptors-style mixins
/// and a dynamically built HTTP-verb method table.
pub fn webframe() -> Project {
    let mut p = Project::new("webframe-app");
    p.main = "index.js".to_string();
    p.test_driver = Some("test/driver.js".to_string());
    p.add_file(
        "index.js",
        r#"const web = require('webframe');
const app = web();
app.get('/', function rootHandler(req, res) {
  res.send('Hello world!');
});
app.post('/items', function createItem(req, res) {
  res.send('created');
});
app.use(function logger(req, res) {
  log('request: ' + req.url);
});
var server = app.listen(8080);
function log(msg) { console.log(msg); }
module.exports = app;
"#,
    );
    p.add_file(
        "node_modules/webframe/index.js",
        r#"var mixin = require('mixin-props');
var EventEmitter = require('events');
var proto = require('./application');
var router = require('./router');

exports = module.exports = createApplication;

function createApplication() {
  var app = function(req, res, next) {
    app.handle(req, res, next);
  };
  mixin(app, EventEmitter.prototype, false);
  mixin(app, proto, false);
  app.init();
  return app;
}

module.exports.Router = router;
"#,
    );
    p.add_file(
        "node_modules/mixin-props/index.js",
        r#"module.exports = merge;

function merge(dest, src, redefine) {
  Object.getOwnPropertyNames(src).forEach(function forOwnPropertyName(name) {
    if (!redefine && Object.prototype.hasOwnProperty.call(dest, name)) {
      return;
    }
    var descriptor = Object.getOwnPropertyDescriptor(src, name);
    Object.defineProperty(dest, name, descriptor);
  });
  return dest;
}
"#,
    );
    p.add_file(
        "node_modules/webframe/application.js",
        r#"var methods = require('verbs');
var Router = require('./router');
var http = require('http');

var app = exports = module.exports = {};

app.init = function init() {
  this.settings = {};
  this.middleware = [];
};

app.lazyrouter = function lazyrouter() {
  if (!this._router) {
    this._router = new Router();
  }
};

methods.forEach(function(method) {
  app[method] = function(path) {
    this.lazyrouter();
    var route = this._router.route(path);
    route[method].apply(route, Array.prototype.slice.call(arguments, 1));
    return this;
  };
});

app.use = function use(fn) {
  this.middleware.push(fn);
  return this;
};

app.handle = function handle(req, res, next) {
  this.lazyrouter();
  for (var i = 0; i < this.middleware.length; i++) {
    this.middleware[i](req, res);
  }
  this._router.handle(req, res, next);
};

app.set = function set(key, value) {
  this.settings[key] = value;
  return this;
};

app.listen = function listen() {
  var server = http.createServer(this);
  return server.listen.apply(server, arguments);
};
"#,
    );
    p.add_file(
        "node_modules/webframe/router.js",
        r#"var methods = require('verbs');

module.exports = Router;

function Router() {
  this.stack = [];
}

Router.prototype.route = function route(path) {
  var r = new Route(path);
  this.stack.push(r);
  return r;
};

Router.prototype.handle = function handle(req, res, next) {
  for (var i = 0; i < this.stack.length; i++) {
    this.stack[i].dispatch(req, res);
  }
};

function Route(path) {
  this.path = path;
  this.handlers = [];
}

methods.forEach(function(method) {
  Route.prototype[method] = function() {
    for (var i = 0; i < arguments.length; i++) {
      this.handlers.push({ method: method, fn: arguments[i] });
    }
    return this;
  };
});

Route.prototype.dispatch = function dispatch(req, res) {
  for (var i = 0; i < this.handlers.length; i++) {
    this.handlers[i].fn(req, res);
  }
};
"#,
    );
    p.add_file(
        "node_modules/verbs/index.js",
        r#"module.exports = [
  'GET', 'POST', 'PUT', 'DELETE', 'HEAD', 'OPTIONS', 'PATCH'
].map(function(m) {
  return m.toLowerCase();
});
"#,
    );
    p.add_file(
        "test/driver.js",
        r#"var app = require('../index');
app.handle({ url: '/' }, { send: function(body) { return body; } });
app.set('view engine', 'none');
"#,
    );
    p.add_vuln(
        "CVE-SYN-0001",
        "node_modules/webframe/router.js",
        "dispatch",
    );
    p.add_vuln("CVE-SYN-0002", "node_modules/mixin-props/index.js", "merge");
    p
}

/// A publish/subscribe library with a dynamically keyed handler registry.
pub fn pubsub() -> Project {
    let mut p = Project::new("pubsub-app");
    p.test_driver = Some("test/driver.js".to_string());
    p.add_file(
        "index.js",
        r#"var bus = require('tinybus');
var metrics = require('./lib/metrics');

bus.subscribe('order.created', function onOrderCreated(order) {
  metrics.count('orders');
  return order.id;
});
bus.subscribe('order.shipped', function onOrderShipped(order) {
  metrics.count('shipments');
});
bus.publish('order.created', { id: 1 });

module.exports = bus;
"#,
    );
    p.add_file(
        "lib/metrics.js",
        r#"var counters = {};

exports.count = function count(name) {
  var key = 'c_' + name;
  if (!counters[key]) {
    counters[key] = 0;
  }
  counters[key] = counters[key] + 1;
  return counters[key];
};

exports.get = function get(name) {
  return counters['c_' + name] || 0;
};
"#,
    );
    p.add_file(
        "node_modules/tinybus/index.js",
        r#"var topics = {};

exports.subscribe = function subscribe(topic, handler) {
  var list = topics[topic];
  if (!list) {
    list = [];
    topics[topic] = list;
  }
  list.push(handler);
  return function unsubscribe() {
    var idx = list.indexOf(handler);
    if (idx >= 0) {
      list.splice(idx, 1);
    }
  };
};

exports.publish = function publish(topic) {
  var list = topics[topic];
  if (!list) {
    return 0;
  }
  var args = Array.prototype.slice.call(arguments, 1);
  for (var i = 0; i < list.length; i++) {
    list[i].apply(null, args);
  }
  return list.length;
};

exports.clear = function clear() {
  topics = {};
};
"#,
    );
    p.add_file(
        "test/driver.js",
        r#"var bus = require('../index');
bus.publish('order.shipped', { id: 2 });
"#,
    );
    p.add_vuln("CVE-SYN-0003", "node_modules/tinybus/index.js", "publish");
    p
}

/// A plugin host that loads plugins through dynamically computed module
/// names and dispatches to them via a name-keyed table.
pub fn plugin_host() -> Project {
    let mut p = Project::new("plugin-host");
    p.test_driver = Some("test/driver.js".to_string());
    p.add_file(
        "index.js",
        r#"var host = require('./lib/host');
host.load('markdown');
host.load('yaml');
var out = host.run('markdown', '# hi');
module.exports = host;
"#,
    );
    p.add_file(
        "lib/host.js",
        r#"var registry = {};

exports.load = function load(name) {
  var plugin = require('./plugins/' + name);
  registry[name] = plugin;
  if (plugin.activate) {
    plugin.activate();
  }
  return plugin;
};

exports.run = function run(name, input) {
  var plugin = registry[name];
  return plugin.transform(input);
};

exports.names = function names() {
  return Object.keys(registry);
};
"#,
    );
    p.add_file(
        "lib/plugins/markdown.js",
        r#"exports.activate = function activateMarkdown() {
  return 'md-active';
};
exports.transform = function transformMarkdown(input) {
  return '<h1>' + input.slice(2) + '</h1>';
};
"#,
    );
    p.add_file(
        "lib/plugins/yaml.js",
        r#"exports.activate = function activateYaml() {
  return 'yaml-active';
};
exports.transform = function transformYaml(input) {
  return input.split(':');
};
"#,
    );
    p.add_file(
        "test/driver.js",
        r#"var host = require('../index');
host.run('yaml', 'a: 1');
"#,
    );
    p.add_vuln("CVE-SYN-0004", "lib/plugins/yaml.js", "transformYaml");
    p
}

/// A validator-chain library whose rule set is assembled dynamically.
pub fn validator() -> Project {
    let mut p = Project::new("validator-app");
    p.test_driver = Some("test/driver.js".to_string());
    p.add_file(
        "index.js",
        r#"var v = require('checkit');
var result = v.check('hello@example.com')
  .isString()
  .notEmpty()
  .matches('@')
  .valid();
module.exports = { ok: result };
"#,
    );
    p.add_file(
        "node_modules/checkit/index.js",
        r#"var rules = require('./rules');

module.exports = { check: check };

function check(value) {
  return new Chain(value);
}

function Chain(value) {
  this.value = value;
  this.errors = [];
}

Chain.prototype.valid = function valid() {
  return this.errors.length === 0;
};

Object.keys(rules).forEach(function(name) {
  Chain.prototype[name] = function() {
    var rule = rules[name];
    var args = [this.value].concat(Array.prototype.slice.call(arguments));
    if (!rule.apply(null, args)) {
      this.errors.push(name);
    }
    return this;
  };
});
"#,
    );
    p.add_file(
        "node_modules/checkit/rules.js",
        r#"exports.isString = function isString(v) {
  return typeof v === 'string';
};
exports.notEmpty = function notEmpty(v) {
  return v.length > 0;
};
exports.matches = function matches(v, needle) {
  return v.indexOf(needle) >= 0;
};
exports.isNumber = function isNumber(v) {
  return typeof v === 'number';
};
exports.min = function min(v, n) {
  return v >= n;
};
"#,
    );
    p.add_file(
        "test/driver.js",
        r#"var out = require('../index');
var v = require('checkit');
v.check(42).isNumber().min(10).valid();
"#,
    );
    p
}

/// An ORM-ish model builder that defines accessors with
/// `Object.defineProperty` for each declared attribute.
pub fn model_builder() -> Project {
    let mut p = Project::new("model-app");
    p.test_driver = Some("test/driver.js".to_string());
    p.add_file(
        "index.js",
        r#"var define = require('modeldef');
var User = define('User', {
  name: { default: '' },
  age: { default: 0 },
  email: { default: null }
});
var u = new User();
u.name = 'ada';
var snapshot = u.toJSON();
module.exports = { User: User, user: u, snapshot: snapshot };
"#,
    );
    p.add_file(
        "node_modules/modeldef/index.js",
        r#"module.exports = defineModel;

function defineModel(modelName, attributes) {
  function Model() {
    this._data = {};
    var names = Object.keys(attributes);
    for (var i = 0; i < names.length; i++) {
      this._data[names[i]] = attributes[names[i]].default;
    }
  }
  Model.modelName = modelName;
  Object.keys(attributes).forEach(function(attr) {
    Object.defineProperty(Model.prototype, attr, {
      get: function getAttr() {
        return this._data[attr];
      },
      set: function setAttr(v) {
        this._data[attr] = v;
      },
      enumerable: true
    });
  });
  Model.prototype.toJSON = function toJSON() {
    var out = {};
    var names = Object.keys(attributes);
    for (var i = 0; i < names.length; i++) {
      out[names[i]] = this._data[names[i]];
    }
    return out;
  };
  return Model;
}
"#,
    );
    p.add_file(
        "test/driver.js",
        r#"var m = require('../index');
var u2 = new m.User();
u2.age = 30;
u2.toJSON();
"#,
    );
    p.add_vuln(
        "CVE-SYN-0005",
        "node_modules/modeldef/index.js",
        "defineModel",
    );
    p
}

/// An API assembled by `eval`-generated code (the paper's §3 eval
/// discussion: hints still arise when both endpoints come from static
/// code).
pub fn eval_api() -> Project {
    let mut p = Project::new("evalapi-app");
    p.test_driver = Some("test/driver.js".to_string());
    p.add_file(
        "index.js",
        r#"var api = require('./lib/api');
var sum = api.add(2, 3);
var diff = api.sub(10, 4);
module.exports = { sum: sum, diff: diff };
"#,
    );
    p.add_file(
        "lib/api.js",
        r#"var ops = require('./ops');
var api = {};

// Install each op through dynamically generated glue code.
Object.keys(ops).forEach(function(name) {
  var fn = ops[name];
  eval("api[name] = fn;");
});

module.exports = api;
"#,
    );
    p.add_file(
        "lib/ops.js",
        r#"exports.add = function add(a, b) {
  return a + b;
};
exports.sub = function sub(a, b) {
  return a - b;
};
exports.mul = function mul(a, b) {
  return a * b;
};
"#,
    );
    p.add_file(
        "test/driver.js",
        r#"var api = require('../lib/api');
api.mul(6, 7);
"#,
    );
    p
}

/// A middleware/hook pipeline: arrays of functions invoked in order, with
/// phases selected by computed keys.
pub fn middleware_stack() -> Project {
    let mut p = Project::new("middleware-app");
    p.test_driver = Some("test/driver.js".to_string());
    p.add_file(
        "index.js",
        r#"var pipeline = require('hookline')();

pipeline.on('before', function auth(ctx) {
  ctx.user = 'u1';
});
pipeline.on('action', function handle(ctx) {
  ctx.result = 'handled:' + ctx.user;
});
pipeline.on('after', function audit(ctx) {
  ctx.audited = true;
});

var ctx = {};
pipeline.run(ctx);
module.exports = ctx;
"#,
    );
    p.add_file(
        "node_modules/hookline/index.js",
        r#"var PHASES = ['before', 'action', 'after'];

module.exports = function createPipeline() {
  var hooks = {};
  PHASES.forEach(function(phase) {
    hooks[phase] = [];
  });
  var pipeline = {};
  pipeline.on = function on(phase, fn) {
    hooks[phase].push(fn);
    return pipeline;
  };
  pipeline.run = function run(ctx) {
    for (var i = 0; i < PHASES.length; i++) {
      var fns = hooks[PHASES[i]];
      for (var j = 0; j < fns.length; j++) {
        fns[j](ctx);
      }
    }
    return ctx;
  };
  return pipeline;
};
"#,
    );
    p.add_file(
        "test/driver.js",
        r#"var ctx = require('../index');
var make = require('hookline');
var p2 = make();
p2.on('action', function extra(c) { c.extra = 1; });
p2.run({});
"#,
    );
    p
}

/// Internationalization via dynamically computed `require` paths.
pub fn i18n() -> Project {
    let mut p = Project::new("i18n-app");
    p.test_driver = Some("test/driver.js".to_string());
    p.add_file(
        "index.js",
        r#"var i18n = require('./lib/i18n');
i18n.setLocale('en');
var hello = i18n.t('hello');
i18n.setLocale('de');
var hallo = i18n.t('hello');
module.exports = { hello: hello, hallo: hallo };
"#,
    );
    p.add_file(
        "lib/i18n.js",
        r#"var current = 'en';
var cache = {};

exports.setLocale = function setLocale(locale) {
  current = locale;
};

exports.t = function translate(key) {
  var table = load(current);
  var entry = table[key];
  if (typeof entry === 'function') {
    return entry();
  }
  return entry;
};

function load(locale) {
  if (!cache[locale]) {
    cache[locale] = require('./locales/' + locale);
  }
  return cache[locale];
}
"#,
    );
    p.add_file(
        "lib/locales/en.js",
        r#"exports.hello = 'hello';
exports.bye = function formatBye() {
  return 'goodbye';
};
"#,
    );
    p.add_file(
        "lib/locales/de.js",
        r#"exports.hello = 'hallo';
exports.bye = function formatTschuess() {
  return 'tschuess';
};
"#,
    );
    p.add_file(
        "test/driver.js",
        r#"var x = require('../index');
var i18n = require('../lib/i18n');
i18n.setLocale('en');
i18n.t('bye');
"#,
    );
    p
}

/// A configuration store built around computed keys and accessors.
pub fn config_store() -> Project {
    let mut p = Project::new("config-app");
    p.test_driver = Some("test/driver.js".to_string());
    p.add_file(
        "index.js",
        r#"var store = require('kvstore').create();
store.set('db.host', 'localhost');
store.set('db.port', 5432);
store.watch('db.host', function onHostChange(value) {
  return 'host is now ' + value;
});
store.set('db.host', 'example.com');
module.exports = store;
"#,
    );
    p.add_file(
        "node_modules/kvstore/index.js",
        r#"exports.create = function create() {
  var data = {};
  var watchers = {};
  var store = {};

  store.set = function set(key, value) {
    data[key] = value;
    var list = watchers[key];
    if (list) {
      for (var i = 0; i < list.length; i++) {
        list[i](value);
      }
    }
    return store;
  };

  store.get = function get(key) {
    return data[key];
  };

  store.watch = function watch(key, fn) {
    if (!watchers[key]) {
      watchers[key] = [];
    }
    watchers[key].push(fn);
    return store;
  };

  store.keys = function keys() {
    return Object.keys(data);
  };

  return store;
};
"#,
    );
    p.add_file(
        "test/driver.js",
        r#"var store = require('../index');
store.get('db.port');
store.keys();
"#,
    );
    p
}

/// A class-based dependency-injection container instantiating services by
/// name.
pub fn di_container() -> Project {
    let mut p = Project::new("di-app");
    p.test_driver = Some("test/driver.js".to_string());
    p.add_file(
        "index.js",
        r#"var Container = require('boxful');
var c = new Container();

class Database {
  connect() {
    return 'connected';
  }
}

class UserService {
  constructor() {
    this.tag = 'users';
  }
  list() {
    return ['ada', 'grace'];
  }
}

c.register('db', Database);
c.register('users', UserService);

var users = c.resolve('users');
var names = users.list();
module.exports = { container: c, names: names };
"#,
    );
    p.add_file(
        "node_modules/boxful/index.js",
        r#"module.exports = Container;

function Container() {
  this.factories = {};
  this.instances = {};
}

Container.prototype.register = function register(name, ctor) {
  this.factories[name] = ctor;
  return this;
};

Container.prototype.resolve = function resolve(name) {
  if (this.instances[name]) {
    return this.instances[name];
  }
  var Ctor = this.factories[name];
  var instance = new Ctor();
  this.instances[name] = instance;
  return instance;
};

Container.prototype.has = function has(name) {
  return !!this.factories[name];
};
"#,
    );
    p.add_file(
        "test/driver.js",
        r#"var app = require('../index');
var db = app.container.resolve('db');
db.connect();
"#,
    );
    p.add_vuln("CVE-SYN-0006", "node_modules/boxful/index.js", "resolve");
    p
}

/// A task queue where workers are registered per task type and invoked
/// through a computed lookup.
pub fn task_queue() -> Project {
    let mut p = Project::new("queue-app");
    p.test_driver = Some("test/driver.js".to_string());
    p.add_file(
        "index.js",
        r#"var Queue = require('workq');
var q = new Queue();

q.process('email', function sendEmail(job) {
  return 'sent:' + job.to;
});
q.process('resize', function resizeImage(job) {
  return 'resized:' + job.file;
});

q.push('email', { to: 'x@example.com' });
q.push('resize', { file: 'a.png' });
q.drain();
module.exports = q;
"#,
    );
    p.add_file(
        "node_modules/workq/index.js",
        r#"var EventEmitter = require('events');
var util = require('util');

module.exports = Queue;

function Queue() {
  EventEmitter.call(this);
  this.workers = {};
  this.jobs = [];
}

util.inherits(Queue, EventEmitter);

Queue.prototype.process = function process(type, worker) {
  this.workers[type] = worker;
  return this;
};

Queue.prototype.push = function push(type, payload) {
  this.jobs.push({ type: type, payload: payload });
  return this.jobs.length;
};

Queue.prototype.drain = function drain() {
  var results = [];
  while (this.jobs.length > 0) {
    var job = this.jobs.shift();
    var worker = this.workers[job.type];
    if (worker) {
      results.push(worker(job.payload));
    }
    this.emit('done', job.type);
  }
  return results;
};
"#,
    );
    p.add_file(
        "test/driver.js",
        r#"var q = require('../index');
q.on('done', function onDone(type) { return type; });
q.push('email', { to: 'y@example.com' });
q.drain();
"#,
    );
    p
}

/// A template engine with helper functions looked up by name.
pub fn template_engine() -> Project {
    let mut p = Project::new("template-app");
    p.test_driver = Some("test/driver.js".to_string());
    p.add_file(
        "index.js",
        r#"var tpl = require('stencil');
tpl.helper('upper', function upperHelper(s) {
  return s.toUpperCase();
});
tpl.helper('trim', function trimHelper(s) {
  return s.trim();
});
var out = tpl.render('upper', ' hi ');
module.exports = { out: out };
"#,
    );
    p.add_file(
        "node_modules/stencil/index.js",
        r#"var helpers = {};
var builtin = require('./builtin');

Object.keys(builtin).forEach(function(name) {
  helpers[name] = builtin[name];
});

exports.helper = function registerHelper(name, fn) {
  helpers[name] = fn;
  return exports;
};

exports.render = function render(helperName, input) {
  var fn = helpers[helperName];
  return fn(input);
};

exports.list = function list() {
  return Object.keys(helpers);
};
"#,
    );
    p.add_file(
        "node_modules/stencil/builtin.js",
        r#"exports.lower = function lowerHelper(s) {
  return s.toLowerCase();
};
exports.length = function lengthHelper(s) {
  return s.length;
};
"#,
    );
    p.add_file(
        "test/driver.js",
        r#"var x = require('../index');
var tpl = require('stencil');
tpl.render('lower', 'ABC');
tpl.render('trim', '  y  ');
"#,
    );
    p
}

/// A REST client whose verb methods are generated from a list, returning
/// chainable request objects.
pub fn rest_client() -> Project {
    let mut p = Project::new("rest-app");
    p.test_driver = Some("test/driver.js".to_string());
    p.add_file(
        "index.js",
        r#"var rest = require('fetchling');
var client = rest.create('https://api.example.com');
var req = client.get('/users').header('accept', 'application/json');
var posted = client.post('/users').body({ name: 'ada' }).send();
module.exports = { client: client, posted: posted };
"#,
    );
    p.add_file(
        "node_modules/fetchling/index.js",
        r#"var http = require('http');
var VERBS = ['get', 'post', 'put', 'delete'];

exports.create = function create(base) {
  var client = { base: base };
  VERBS.forEach(function(verb) {
    client[verb] = function(path) {
      return new Request(verb, base + path);
    };
  });
  return client;
};

function Request(method, url) {
  this.method = method;
  this.url = url;
  this.headers = {};
}

Request.prototype.header = function header(name, value) {
  this.headers[name] = value;
  return this;
};

Request.prototype.body = function body(data) {
  this._body = data;
  return this;
};

Request.prototype.send = function send() {
  var req = http.request(this.url, function onResponse(res) {
    return res;
  });
  return { status: 200, request: this };
};
"#,
    );
    p.add_file(
        "test/driver.js",
        r#"var app = require('../index');
app.client.put('/users/1').send();
"#,
    );
    p.add_vuln("CVE-SYN-0007", "node_modules/fetchling/index.js", "send");
    p
}

/// A leveled logger where level methods are installed in a loop and the
/// level table is consulted dynamically.
pub fn logger_lib() -> Project {
    let mut p = Project::new("logger-app");
    p.test_driver = Some("test/driver.js".to_string());
    p.add_file(
        "index.js",
        r#"var logger = require('woodcut')({ level: 'info' });
logger.info('starting');
logger.warn('low disk');
logger.child('db').error('connection lost');
module.exports = logger;
"#,
    );
    p.add_file(
        "node_modules/woodcut/index.js",
        r#"var LEVELS = { trace: 10, debug: 20, info: 30, warn: 40, error: 50 };

module.exports = function createLogger(opts) {
  var threshold = LEVELS[(opts && opts.level) || 'info'];
  var logger = { records: [] };

  Object.keys(LEVELS).forEach(function(name) {
    logger[name] = function(msg) {
      if (LEVELS[name] >= threshold) {
        logger.records.push(name + ': ' + msg);
        write(name, msg);
      }
      return logger;
    };
  });

  logger.child = function child(tag) {
    var sub = module.exports({ level: 'trace' });
    sub.tag = tag;
    return sub;
  };

  return logger;
};

function write(level, msg) {
  console.log('[' + level + '] ' + msg);
}
"#,
    );
    p.add_file(
        "test/driver.js",
        r#"var logger = require('../index');
logger.debug('hidden');
logger.error('boom');
"#,
    );
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_patterns_parse() {
        for p in pattern_projects() {
            aji_parser::parse_project(&p)
                .unwrap_or_else(|e| panic!("{} failed to parse: {e}", p.name));
        }
    }

    #[test]
    fn all_patterns_have_drivers_and_mains() {
        for p in pattern_projects() {
            assert!(p.file(&p.main).is_some(), "{} missing main", p.name);
            let d = p.test_driver.clone().unwrap();
            assert!(p.file(&d).is_some(), "{} missing driver", p.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<String> = pattern_projects().iter().map(|p| p.name.clone()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn vulns_reference_existing_files() {
        for p in pattern_projects() {
            for v in &p.vulns {
                assert!(
                    p.file(&v.path).is_some(),
                    "{}: vuln path {} missing",
                    p.name,
                    v.path
                );
            }
        }
    }
}
